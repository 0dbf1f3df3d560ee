package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/affil"
	"repro/internal/gender"
	"repro/internal/scholar"
)

// The CSV layout mirrors the paper's frozen-CSV artifact style: one file
// per entity, person-ID lists embedded as semicolon-joined fields.

const (
	personsFile     = "persons.csv"
	conferencesFile = "conferences.csv"
	papersFile      = "papers.csv"
	dateLayout      = "2006-01-02"
	listSep         = ";"
)

var personHeader = []string{
	"id", "name", "forename", "true_gender", "gender", "assign_method",
	"email", "affiliation", "country", "sector",
	"has_gs", "gs_pubs", "gs_hindex", "gs_i10", "gs_citations",
	"has_s2", "s2_pubs",
}

var conferenceHeader = []string{
	"id", "name", "year", "date", "country", "submitted", "acceptance_rate",
	"double_blind", "diversity_chair", "code_of_conduct", "childcare",
	"women_attendance", "subfield",
	"pc_chairs", "pc_members", "keynotes", "panelists", "session_chairs",
}

var paperHeader = []string{"id", "conf", "title", "authors", "hpc_topic", "citations36"}

// WritePersonsCSV writes the researcher table.
func (d *Dataset) WritePersonsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(personHeader); err != nil {
		return err
	}
	// Deterministic row order.
	ids := sortedIDs(func() map[PersonID]bool {
		m := make(map[PersonID]bool, len(d.Persons))
		for id := range d.Persons {
			m[id] = true
		}
		return m
	}())
	for _, id := range ids {
		p := d.Persons[id]
		row := []string{
			string(p.ID), p.Name, p.Forename,
			p.TrueGender.String(), p.Gender.String(), p.AssignMethod.String(),
			p.Email, p.Affiliation, p.CountryCode, p.Sector.String(),
			strconv.FormatBool(p.HasGSProfile),
			strconv.Itoa(p.GS.Publications), strconv.Itoa(p.GS.HIndex),
			strconv.Itoa(p.GS.I10Index), strconv.Itoa(p.GS.Citations),
			strconv.FormatBool(p.HasS2), strconv.Itoa(p.S2Pubs),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteConferencesCSV writes the conference table.
func (d *Dataset) WriteConferencesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(conferenceHeader); err != nil {
		return err
	}
	for _, c := range d.Conferences {
		row := []string{
			string(c.ID), c.Name, strconv.Itoa(c.Year),
			c.Date.Format(dateLayout), c.CountryCode,
			strconv.Itoa(c.Submitted),
			strconv.FormatFloat(c.AcceptanceRate, 'f', -1, 64),
			strconv.FormatBool(c.DoubleBlind), strconv.FormatBool(c.DiversityChair),
			strconv.FormatBool(c.CodeOfConduct), strconv.FormatBool(c.Childcare),
			strconv.FormatFloat(c.WomenAttendance, 'f', -1, 64),
			c.Subfield,
			joinIDs(c.PCChairs), joinIDs(c.PCMembers), joinIDs(c.Keynotes),
			joinIDs(c.Panelists), joinIDs(c.SessionChairs),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePapersCSV writes the paper table.
func (d *Dataset) WritePapersCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(paperHeader); err != nil {
		return err
	}
	for _, p := range d.Papers {
		row := []string{
			string(p.ID), string(p.Conf), p.Title, joinIDs(p.Authors),
			strconv.FormatBool(p.HPCTopic), strconv.Itoa(p.Citations36),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveDir writes the three CSV files into dir (created if absent).
func (d *Dataset) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writers := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{personsFile, d.WritePersonsCSV},
		{conferencesFile, d.WriteConferencesCSV},
		{papersFile, d.WritePapersCSV},
	}
	for _, w := range writers {
		f, err := os.Create(filepath.Join(dir, w.name))
		if err != nil {
			return err
		}
		if err := w.fn(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("dataset: writing %s: %w", w.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads a dataset saved by SaveDir and validates it.
func LoadDir(dir string) (*Dataset, error) {
	d := New()
	if err := readFile(filepath.Join(dir, personsFile), d.readPersonsCSV); err != nil {
		return nil, err
	}
	if err := readFile(filepath.Join(dir, conferencesFile), d.readConferencesCSV); err != nil {
		return nil, err
	}
	if err := readFile(filepath.Join(dir, papersFile), d.readPapersCSV); err != nil {
		return nil, err
	}
	d.Reindex()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func readFile(path string, fn func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//whpcvet:ignore errcheck close of a read-only file; the parse result is validated afterwards
	defer f.Close()
	if err := fn(f); err != nil {
		return fmt.Errorf("dataset: reading %s: %w", filepath.Base(path), err)
	}
	return nil
}

func (d *Dataset) readPersonsCSV(r io.Reader) error {
	rows, lines, err := readAll(r, personHeader)
	if err != nil {
		return err
	}
	for i, row := range rows {
		line := lines[i]
		p := &Person{
			ID:           PersonID(row[0]),
			Name:         row[1],
			Forename:     row[2],
			TrueGender:   gender.Parse(row[3]),
			Gender:       gender.Parse(row[4]),
			AssignMethod: parseMethod(row[5]),
			Email:        row[6],
			Affiliation:  row[7],
			CountryCode:  row[8],
			Sector:       affil.ParseSector(row[9]),
		}
		var perr error
		p.HasGSProfile, perr = strconv.ParseBool(row[10])
		if perr != nil {
			return rowErr(line, "has_gs", perr)
		}
		gs := scholar.Profile{}
		if gs.Publications, perr = strconv.Atoi(row[11]); perr != nil {
			return rowErr(line, "gs_pubs", perr)
		}
		if gs.HIndex, perr = strconv.Atoi(row[12]); perr != nil {
			return rowErr(line, "gs_hindex", perr)
		}
		if gs.I10Index, perr = strconv.Atoi(row[13]); perr != nil {
			return rowErr(line, "gs_i10", perr)
		}
		if gs.Citations, perr = strconv.Atoi(row[14]); perr != nil {
			return rowErr(line, "gs_citations", perr)
		}
		p.GS = gs
		if p.HasS2, perr = strconv.ParseBool(row[15]); perr != nil {
			return rowErr(line, "has_s2", perr)
		}
		if p.S2Pubs, perr = strconv.Atoi(row[16]); perr != nil {
			return rowErr(line, "s2_pubs", perr)
		}
		if err := d.AddPerson(p); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return nil
}

func (d *Dataset) readConferencesCSV(r io.Reader) error {
	rows, lines, err := readAll(r, conferenceHeader)
	if err != nil {
		return err
	}
	for i, row := range rows {
		line := lines[i]
		c := &Conference{
			ID:          ConfID(row[0]),
			Name:        row[1],
			CountryCode: row[4],
		}
		var perr error
		if c.Year, perr = strconv.Atoi(row[2]); perr != nil {
			return rowErr(line, "year", perr)
		}
		if c.Date, perr = time.Parse(dateLayout, row[3]); perr != nil {
			return rowErr(line, "date", perr)
		}
		if c.Submitted, perr = strconv.Atoi(row[5]); perr != nil {
			return rowErr(line, "submitted", perr)
		}
		if c.AcceptanceRate, perr = strconv.ParseFloat(row[6], 64); perr != nil {
			return rowErr(line, "acceptance_rate", perr)
		}
		bools := []*bool{&c.DoubleBlind, &c.DiversityChair, &c.CodeOfConduct, &c.Childcare}
		for j, dst := range bools {
			if *dst, perr = strconv.ParseBool(row[7+j]); perr != nil {
				return rowErr(line, conferenceHeader[7+j], perr)
			}
		}
		if c.WomenAttendance, perr = strconv.ParseFloat(row[11], 64); perr != nil {
			return rowErr(line, "women_attendance", perr)
		}
		c.Subfield = row[12]
		c.PCChairs = splitIDs(row[13])
		c.PCMembers = splitIDs(row[14])
		c.Keynotes = splitIDs(row[15])
		c.Panelists = splitIDs(row[16])
		c.SessionChairs = splitIDs(row[17])
		if err := d.AddConference(c); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return nil
}

func (d *Dataset) readPapersCSV(r io.Reader) error {
	rows, lines, err := readAll(r, paperHeader)
	if err != nil {
		return err
	}
	for i, row := range rows {
		line := lines[i]
		p := &Paper{
			ID:      PaperID(row[0]),
			Conf:    ConfID(row[1]),
			Title:   row[2],
			Authors: splitIDs(row[3]),
		}
		var perr error
		if p.HPCTopic, perr = strconv.ParseBool(row[4]); perr != nil {
			return rowErr(line, "hpc_topic", perr)
		}
		if p.Citations36, perr = strconv.Atoi(row[5]); perr != nil {
			return rowErr(line, "citations36", perr)
		}
		if err := d.AddPaper(p); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return nil
}

// readAll parses a whole CSV table, checking the header and field counts.
// It returns the data rows plus the 1-based input line each row started
// on, so value-parse errors can name the exact offending line. Truncated
// or overlong rows are reported with their line instead of surfacing the
// first bare csv.ParseError.
func readAll(r io.Reader, wantHeader []string) ([][]string, []int, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // row arity is checked by hand for better errors
	var rows [][]string
	var lines []int
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				return nil, nil, fmt.Errorf("line %d: malformed CSV: %w", pe.Line, pe.Err)
			}
			return nil, nil, fmt.Errorf("malformed CSV: %w", err)
		}
		line, _ := cr.FieldPos(0)
		if len(row) != len(wantHeader) {
			kind := "truncated"
			if len(row) > len(wantHeader) {
				kind = "overlong"
			}
			return nil, nil, fmt.Errorf("line %d: %s row: got %d fields, want %d",
				line, kind, len(row), len(wantHeader))
		}
		rows = append(rows, row)
		lines = append(lines, line)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("empty CSV, want header %v", wantHeader)
	}
	for i, col := range wantHeader {
		if rows[0][i] != col {
			return nil, nil, fmt.Errorf("header column %d is %q, want %q", i, rows[0][i], col)
		}
	}
	return rows[1:], lines[1:], nil
}

// rowErr identifies a bad value by its input line and column name; the
// enclosing readFile wrapper adds the file name.
func rowErr(line int, field string, err error) error {
	return fmt.Errorf("line %d: field %s: %w", line, field, err)
}

func parseMethod(s string) gender.Method {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "manual":
		return gender.MethodManual
	case "automated":
		return gender.MethodAutomated
	default:
		return gender.MethodNone
	}
}

func joinIDs(ids []PersonID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, listSep)
}

func splitIDs(s string) []PersonID {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, listSep)
	out := make([]PersonID, len(parts))
	for i, p := range parts {
		out[i] = PersonID(p)
	}
	return out
}
