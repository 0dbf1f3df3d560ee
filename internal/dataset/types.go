// Package dataset defines the relational data model the paper's analyses
// run over: conferences, peer-reviewed papers, researchers, and the
// conference roles connecting them (author, PC chair, PC member, keynote
// speaker, panelist, session chair). It also provides CSV codecs matching
// the frozen-CSV artifact style of the paper's published dataset
// (github.com/eitanf/sysconf) and integrity validation.
package dataset

import (
	"fmt"
	"time"

	"repro/internal/affil"
	"repro/internal/gender"
	"repro/internal/scholar"
)

// PersonID uniquely identifies a researcher across the whole corpus
// (researchers recur across conferences and roles).
type PersonID string

// PaperID uniquely identifies a published paper.
type PaperID string

// ConfID identifies a conference edition, e.g. "SC17" or "ISC18".
type ConfID string

// Role is a conference participation role from the paper's §2.
type Role int8

const (
	RoleAuthor Role = iota
	RolePCChair
	RolePCMember
	RoleKeynote
	RolePanelist
	RoleSessionChair
)

// String names the role as the paper's Fig 1 labels them.
func (r Role) String() string {
	switch r {
	case RoleAuthor:
		return "author"
	case RolePCChair:
		return "PC chair"
	case RolePCMember:
		return "PC member"
	case RoleKeynote:
		return "keynote"
	case RolePanelist:
		return "panelist"
	case RoleSessionChair:
		return "session chair"
	default:
		return fmt.Sprintf("role(%d)", int8(r))
	}
}

// Roles lists all roles in the paper's presentation order.
func Roles() []Role {
	return []Role{RoleAuthor, RolePCChair, RolePCMember, RoleKeynote, RolePanelist, RoleSessionChair}
}

// Person is one researcher with every attribute the paper collected.
type Person struct {
	ID       PersonID
	Name     string // full name as printed on papers
	Forename string // extracted forename feeding gender inference

	// TrueGender is the latent ground truth known only to the simulation
	// substrates (the survey validation and accuracy analyses read it);
	// the analyses proper use the perceived Gender below, exactly as the
	// paper could only work with perceived gender.
	TrueGender gender.Gender
	// Gender is the perceived gender produced by the assignment cascade.
	Gender gender.Gender
	// AssignMethod records which cascade stage assigned Gender.
	AssignMethod gender.Method

	Email       string
	Affiliation string
	CountryCode string // ISO alpha-2, "" when unknown
	Sector      affil.Sector

	// HasGSProfile mirrors the paper's 68.3% unambiguous Google Scholar
	// linkage; GS is meaningful only when true.
	HasGSProfile bool
	GS           scholar.Profile

	// S2Pubs is the Semantic Scholar past-publication count (100% author
	// coverage in the paper); meaningful only when HasS2 is true.
	HasS2  bool
	S2Pubs int
}

// Paper is one peer-reviewed publication. Author order follows systems
// conventions: the first author is the primary contributor ("lead"), the
// last author the most senior.
type Paper struct {
	ID      PaperID
	Conf    ConfID
	Title   string
	Authors []PersonID // ordered author list
	// HPCTopic is the paper's manual topic tag: true if the paper relates
	// directly to high-performance hardware or software (§4.1).
	HPCTopic bool
	// Citations36 is the citation count 36 months after publication, the
	// horizon of the Fig 2 reception analysis.
	Citations36 int
}

// Lead returns the first author ("" if the author list is empty).
func (p *Paper) Lead() PersonID {
	if len(p.Authors) == 0 {
		return ""
	}
	return p.Authors[0]
}

// Last returns the last author ("" if the author list is empty).
func (p *Paper) Last() PersonID {
	if len(p.Authors) == 0 {
		return ""
	}
	return p.Authors[len(p.Authors)-1]
}

// Conference is one conference edition with the attributes from Table 1
// and the policy data gathered from conference web sites (§2).
type Conference struct {
	ID             ConfID
	Name           string // series name, e.g. "SC"
	Year           int
	Date           time.Time
	CountryCode    string  // host country, ISO alpha-2
	Submitted      int     // submitted paper count
	AcceptanceRate float64 // accepted / submitted

	// Subfield is the systems subfield the venue belongs to ("HPC",
	// "OS", "Networking", ...). The paper's future work extends the
	// analysis "to the larger set of 56 conferences ... from all
	// subfields of computer systems"; this attribute supports that
	// extension. Empty means unclassified (the 2017 core corpus uses
	// "HPC" throughout).
	Subfield string

	// Review and diversity policies.
	DoubleBlind    bool // SC and ISC are the dataset's only double-blind venues
	DiversityChair bool // diversity/inclusivity chair appointed
	CodeOfConduct  bool
	Childcare      bool // SC's on-site childcare

	// WomenAttendance is the conference-reported fraction of women among
	// attendees (§3.4: SC reported 13-14% across 2016-2020). Zero means
	// the conference did not share attendance demographics.
	WomenAttendance float64

	// Role rosters (author rosters live on the papers). PC membership may
	// repeat people across conferences; within one conference each roster
	// is duplicate-free.
	PCChairs      []PersonID
	PCMembers     []PersonID
	Keynotes      []PersonID
	Panelists     []PersonID
	SessionChairs []PersonID
}

// RoleHolders returns the roster for a non-author role (authors are
// reached through the conference's papers).
func (c *Conference) RoleHolders(r Role) []PersonID {
	switch r {
	case RolePCChair:
		return c.PCChairs
	case RolePCMember:
		return c.PCMembers
	case RoleKeynote:
		return c.Keynotes
	case RolePanelist:
		return c.Panelists
	case RoleSessionChair:
		return c.SessionChairs
	default:
		return nil
	}
}
