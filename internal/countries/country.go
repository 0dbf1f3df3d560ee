// Package countries is an embedded replacement for the
// github.com/mledoze/countries dataset the paper combines with researcher
// affiliations: ISO-3166 country codes, country-code top-level domains, and
// the UN M49 region/subregion taxonomy that Table 3 of the paper aggregates
// by ("Northern America", "Western Europe", "Eastern Asia", ...).
//
// The embedded table covers every country that appears in HPC conference
// authorship in the paper's corpus plus the long tail needed for email-TLD
// resolution. Lookups are case-insensitive and indexed at package init.
package countries

import (
	"sort"
	"strings"
)

// Country is one ISO-3166 entry with the UN M49 geographic taxonomy.
type Country struct {
	Name      string // common English name, e.g. "United States"
	CCA2      string // ISO 3166-1 alpha-2, e.g. "US"
	CCA3      string // ISO 3166-1 alpha-3, e.g. "USA"
	TLD       string // country-code top-level domain, e.g. "us" (no dot)
	Region    string // UN M49 region, e.g. "Americas"
	Subregion string // UN M49 subregion, e.g. "Northern America"
}

// Subregion names as used by the paper's Table 3. "Australia and New
// Zealand" and "Central America" are genuine M49 subregions; the paper's
// "South America" row is the M49 subregion of the Americas.
const (
	NorthernAmerica  = "Northern America"
	WesternEurope    = "Western Europe"
	EasternAsia      = "Eastern Asia"
	SouthernEurope   = "Southern Europe"
	NorthernEurope   = "Northern Europe"
	SouthernAsia     = "Southern Asia"
	SouthAmerica     = "South America"
	AustraliaNZ      = "Australia and New Zealand"
	WesternAsia      = "Western Asia"
	SouthEasternAsia = "South-Eastern Asia"
	EasternEurope    = "Eastern Europe"
	WesternAfrica    = "Western Africa"
	CentralAmerica   = "Central America"
	CentralAsia      = "Central Asia"
	NorthernAfrica   = "Northern Africa"
	CaribbeanRegion  = "Caribbean"
	EasternAfrica    = "Eastern Africa"
	SouthernAfrica   = "Southern Africa"
	MiddleAfrica     = "Middle Africa"
)

var (
	byCCA2 = make(map[string]*Country)
	byCCA3 = make(map[string]*Country)
	byTLD  = make(map[string]*Country)
	byName = make(map[string]*Country)
)

func init() {
	for i := range all {
		c := &all[i]
		byCCA2[c.CCA2] = c
		byCCA3[c.CCA3] = c
		if c.TLD != "" {
			byTLD[c.TLD] = c
		}
		byName[strings.ToLower(c.Name)] = c
	}
}

// All returns a copy of the embedded country table, sorted by CCA2.
func All() []Country {
	out := append([]Country(nil), all...)
	sort.Slice(out, func(i, j int) bool { return out[i].CCA2 < out[j].CCA2 })
	return out
}

// ByCode looks up a country by ISO alpha-2 or alpha-3 code
// (case-insensitive). It also accepts the paper's "UK" alias for GB.
func ByCode(code string) (Country, bool) {
	code = strings.ToUpper(strings.TrimSpace(code))
	if code == "UK" { // the paper's Table 1 uses UK for ICPP's host country
		code = "GB"
	}
	if c, ok := byCCA2[code]; ok {
		return *c, true
	}
	if c, ok := byCCA3[code]; ok {
		return *c, true
	}
	return Country{}, false
}

// ByTLD looks up a country by its ccTLD (with or without the leading dot).
func ByTLD(tld string) (Country, bool) {
	tld = strings.ToLower(strings.TrimPrefix(strings.TrimSpace(tld), "."))
	if tld == "uk" { // .uk is the ccTLD in actual use for GB
		tld = "gb"
	}
	if c, ok := byTLD[tld]; ok {
		return *c, true
	}
	return Country{}, false
}

// ByName looks up a country by its common English name (case-insensitive).
func ByName(name string) (Country, bool) {
	if c, ok := byName[strings.ToLower(strings.TrimSpace(name))]; ok {
		return *c, true
	}
	return Country{}, false
}

// SubregionOf returns the UN subregion of an ISO code, or "" if unknown.
func SubregionOf(code string) string {
	c, ok := ByCode(code)
	if !ok {
		return ""
	}
	return c.Subregion
}
