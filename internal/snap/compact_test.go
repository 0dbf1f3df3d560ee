package snap

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompactFileNameLineage: the compacted name is a pure function of
// the base's and each delta's trailing checksum and of the deltas' names
// and order; it moves when any of them does, and it never matches the
// base or delta naming conventions a snapshot-dir scan looks for.
func TestCompactFileNameLineage(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	snapBytes := tinyDeltaSnapshot(t)
	base := write(CorpusFileName("flagship", 7), snapBytes)
	d21 := write(DeltaFileName("flagship", 7, 2021), snapBytes)
	d22 := write(DeltaFileName("flagship", 7, 2022), snapBytes)
	name := func(base string, deltas ...string) string {
		t.Helper()
		n, err := CompactFileName("flagship", 7, base, deltas)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	one := name(base, d21)
	if !strings.HasPrefix(one, "flagship-7.compact-") || !strings.HasSuffix(one, FileExt) || len(one) != len("flagship-7.compact-")+16+len(FileExt) {
		t.Errorf("compacted name %q, want flagship-7.compact-<16 hex>%s", one, FileExt)
	}
	if ok, _ := filepath.Match(CompactFilePattern("flagship", 7), one); !ok {
		t.Errorf("%q does not match CompactFilePattern", one)
	}
	if ok, _ := filepath.Match(DeltaFilePattern("flagship", 7), one); ok || one == CorpusFileName("flagship", 7) {
		t.Errorf("%q collides with the base or delta naming", one)
	}
	if again := name(base, d21); again != one {
		t.Errorf("lineage not deterministic: %q then %q", one, again)
	}

	distinct := map[string]string{"base + SC21": one}
	add := func(what, n string) {
		t.Helper()
		if prev, dup := distinct[n]; dup {
			t.Errorf("%s has the same lineage as %s", what, prev)
		}
		distinct[n] = what
	}
	add("base alone", name(base))
	add("base + SC21 + SC22", name(base, d21, d22))
	add("base + SC22 + SC21", name(base, d22, d21))

	// Replacing a file's bytes moves its trailer and so the lineage.
	flipped := append([]byte(nil), snapBytes...)
	flipped[len(flipped)-1] ^= 1
	write(filepath.Base(d21), flipped)
	add("base + replaced SC21", name(base, d21))
	write(filepath.Base(base), flipped)
	write(filepath.Base(d21), snapBytes)
	add("replaced base + SC21", name(base, d21))

	if _, err := CompactFileName("flagship", 7, base, []string{filepath.Join(dir, "missing.whpcsnap")}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing delta: err = %v, want fs.ErrNotExist", err)
	}
	short := write("short.whpcsnap", snapBytes[:headerSize])
	if _, err := CompactFileName("flagship", 7, short, nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("short base: err = %v, want ErrTruncated", err)
	}
}
