package countries

import (
	"strings"
	"testing"
)

func TestTableIntegrity(t *testing.T) {
	seen2 := make(map[string]bool)
	seen3 := make(map[string]bool)
	seenTLD := make(map[string]bool)
	for _, c := range All() {
		if len(c.CCA2) != 2 || c.CCA2 != strings.ToUpper(c.CCA2) {
			t.Errorf("%s: bad alpha-2 %q", c.Name, c.CCA2)
		}
		if len(c.CCA3) != 3 || c.CCA3 != strings.ToUpper(c.CCA3) {
			t.Errorf("%s: bad alpha-3 %q", c.Name, c.CCA3)
		}
		if c.TLD != strings.ToLower(c.TLD) {
			t.Errorf("%s: TLD %q not lowercase", c.Name, c.TLD)
		}
		if c.Region == "" || c.Subregion == "" {
			t.Errorf("%s: missing region/subregion", c.Name)
		}
		if seen2[c.CCA2] {
			t.Errorf("duplicate alpha-2 %s", c.CCA2)
		}
		if seen3[c.CCA3] {
			t.Errorf("duplicate alpha-3 %s", c.CCA3)
		}
		if c.TLD != "" && seenTLD[c.TLD] {
			t.Errorf("duplicate TLD %s", c.TLD)
		}
		seen2[c.CCA2] = true
		seen3[c.CCA3] = true
		seenTLD[c.TLD] = true
	}
}

func TestPaperCountriesPresent(t *testing.T) {
	// Every country in the paper's Table 1 (conference hosts) and Table 2
	// (top ten by researchers) must resolve with the right subregion.
	cases := []struct{ code, subregion string }{
		{"US", NorthernAmerica},
		{"CA", NorthernAmerica},
		{"CN", EasternAsia},
		{"JP", EasternAsia},
		{"FR", WesternEurope},
		{"DE", WesternEurope},
		{"CH", WesternEurope},
		{"ES", SouthernEurope},
		{"IN", SouthernAsia},
		{"GB", NorthernEurope},
		{"TH", SouthEasternAsia},
		{"UK", NorthernEurope}, // Table 1 alias
	}
	for _, c := range cases {
		got, ok := ByCode(c.code)
		if !ok {
			t.Errorf("ByCode(%q) not found", c.code)
			continue
		}
		if got.Subregion != c.subregion {
			t.Errorf("ByCode(%q).Subregion = %q, want %q", c.code, got.Subregion, c.subregion)
		}
	}
}

func TestByCodeVariants(t *testing.T) {
	if c, ok := ByCode("usa"); !ok || c.CCA2 != "US" {
		t.Errorf("alpha-3 lowercase lookup failed: %v %v", c, ok)
	}
	if c, ok := ByCode(" de "); !ok || c.Name != "Germany" {
		t.Errorf("whitespace-trimmed lookup failed: %v %v", c, ok)
	}
	if _, ok := ByCode("ZZ"); ok {
		t.Error("ZZ should not resolve")
	}
	if _, ok := ByCode(""); ok {
		t.Error("empty code should not resolve")
	}
}

func TestByTLD(t *testing.T) {
	if c, ok := ByTLD(".fr"); !ok || c.CCA2 != "FR" {
		t.Error("dotted TLD lookup failed")
	}
	if c, ok := ByTLD("uk"); !ok || c.CCA2 != "GB" {
		t.Error(".uk should alias to GB")
	}
	if _, ok := ByTLD("com"); ok {
		t.Error("generic TLD should not resolve to a country")
	}
}

func TestByName(t *testing.T) {
	if c, ok := ByName("united states"); !ok || c.CCA2 != "US" {
		t.Error("case-insensitive name lookup failed")
	}
	if c, ok := ByName("South Korea"); !ok || c.Subregion != EasternAsia {
		t.Error("South Korea lookup failed")
	}
	if _, ok := ByName("Atlantis"); ok {
		t.Error("unknown name should not resolve")
	}
}

func TestSubregionOf(t *testing.T) {
	if got := SubregionOf("AU"); got != AustraliaNZ {
		t.Errorf("SubregionOf(AU) = %q", got)
	}
	if got := SubregionOf("??"); got != "" {
		t.Errorf("SubregionOf(??) = %q, want empty", got)
	}
}

func TestSubregionsCoverTable3(t *testing.T) {
	have := make(map[string]bool)
	for _, c := range all {
		have[c.Subregion] = true
	}
	// All 15 regions from the paper's Table 3 must be representable.
	for _, want := range []string{
		NorthernAmerica, WesternEurope, EasternAsia, SouthernEurope,
		NorthernEurope, SouthernAsia, SouthAmerica, AustraliaNZ,
		WesternAsia, SouthEasternAsia, EasternEurope, WesternAfrica,
		CentralAmerica, CentralAsia, NorthernAfrica,
	} {
		if !have[want] {
			t.Errorf("subregion %q missing from table", want)
		}
	}
}

func TestFromEmail(t *testing.T) {
	cases := []struct {
		email string
		want  string
		ok    bool
	}{
		{"alice@cs.reed.edu", "US", true},
		{"bob@ornl.gov", "US", true},
		{"eve@army.mil", "US", true},
		{"carol@inf.ethz.ch", "CH", true},
		{"dan@cs.tsinghua.edu.cn", "CN", true},
		{"erin@iitb.ac.in", "IN", true},
		{"frank@cam.ac.uk", "GB", true},
		{"grace@u-tokyo.ac.jp", "JP", true},
		{"heidi@us.ibm.com", "US", true}, // well-known domain, subdomain
		{"ivan@research.google.com", "US", true},
		{"judy@bsc.es", "ES", true},
		{"ken@inria.fr", "FR", true},
		{"lea@fz-juelich.de", "DE", true},
		{"mallory@gmail.com", "", false}, // generic, no signal
		{"nina@example.org", "", false},
		{"oscar@startup.io", "", false},
		{"no-at-sign", "", false},
		{"trailing@", "", false},
		{"peggy@kaust.edu.sa", "SA", true}, // well-known beats the .sa walk anyway
		{"quinn@unknown.zz", "", false},
	}
	for _, c := range cases {
		got, ok := FromEmail(c.email)
		if ok != c.ok || got != c.want {
			t.Errorf("FromEmail(%q) = (%q, %v), want (%q, %v)", c.email, got, ok, c.want, c.ok)
		}
	}
}

func TestFromDomain(t *testing.T) {
	if cc, ok := FromDomain("cea.fr."); !ok || cc != "FR" {
		t.Error("trailing-dot domain should resolve")
	}
	if _, ok := FromDomain("localhost"); ok {
		t.Error("single-label domain should not resolve")
	}
	if _, ok := FromDomain(""); ok {
		t.Error("empty domain should not resolve")
	}
	if cc, ok := FromDomain("ANL.GOV"); !ok || cc != "US" {
		t.Error("uppercase domain should resolve to US")
	}
}
