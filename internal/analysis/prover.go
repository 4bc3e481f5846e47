package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dragprof/internal/bytecode"
)

// The batch prover is the bridge between fleet profiles and the static
// analyses: dragserved's cross-run queries name drag-hot sites by their
// printable descriptions ("Class.method:line" chains), and the prover
// answers, for a batch of such references at once, which of the paper's
// rewrites the analyses can prove sound. The heavyweight passes — call
// graph, flow, escape, Andersen points-to, interprocedural heap liveness
// and the phase-guard kill proof — run exactly once per distinct program;
// every verdict after that is a table lookup. Results are cached under the
// program's content hash (bytecode.ProgramHash), so re-proving sites of an
// unchanged build is free no matter how many times the autofix loop comes
// back, and each verdict records the content hash of its hosting method
// (bytecode.MethodHash), which downstream reporting uses as a stable,
// line-drift-proof result fingerprint.

// Verdict statuses.
const (
	// VerdictProved: the analyses prove the rewrite sound; it can be
	// applied with no profile run (transform.Rewrite will still re-validate
	// before editing bytecode).
	VerdictProved = "proved"
	// VerdictPlausible: the analyses support the rewrite but cannot prove
	// it alone; profile evidence decides profitability (SARIF suggestion
	// territory).
	VerdictPlausible = "plausible"
	// VerdictNone: the analyses see no applicable rewrite at the site.
	VerdictNone = "no-rewrite"
	// VerdictUnknown: the reference did not resolve to an allocation site
	// of this program (stale profile, different build).
	VerdictUnknown = "unknown-site"
)

// Rewrite kinds a verdict can carry.
const (
	KindDeadAlloc  = "dead-alloc"
	KindPhaseKill  = "phase-kill"
	KindWriteOnly  = "write-only"
	KindAssignNull = "assign-null"
	KindLazyAlloc  = "lazy-alloc"
)

// SiteRef names one allocation site as fleet data reports it: either a
// plain site description ("Mesh.<init>:28") or a nested chain
// ("Main.main:74 > Mesh.<init>:28"). The innermost chain element is the
// allocation itself; outer elements are the enclosing allocations.
type SiteRef struct {
	Desc string `json:"desc"`
}

// Elements splits the reference into chain elements, outermost first.
func (r SiteRef) Elements() []string {
	parts := strings.Split(r.Desc, " > ")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// SiteVerdict is the prover's answer for one reference.
type SiteVerdict struct {
	// Ref echoes the queried reference.
	Ref SiteRef `json:"ref"`
	// Site is the resolved allocation site id (-1 when unresolved) and
	// Desc its full description.
	Site int32  `json:"site"`
	Desc string `json:"desc,omitempty"`
	// Anchor is the innermost chain element living in application code —
	// the site the paper's rewrites actually edit when the allocation
	// itself sits inside library code (jack's HashTable internals anchor
	// at the Production fields). Equal to Site when the allocation is
	// application code; -1 when no element resolved.
	Anchor     int32  `json:"anchor"`
	AnchorDesc string `json:"anchorDesc,omitempty"`
	// Status is one of the Verdict* constants and Kind one of the Kind*
	// constants (empty for no-rewrite/unknown).
	Status string `json:"status"`
	Kind   string `json:"kind,omitempty"`
	// Evidence is the human-readable proof sketch.
	Evidence string `json:"evidence,omitempty"`
	// MethodHash is the content hash of the method hosting the resolved
	// site — the stable fingerprint component for SARIF results.
	MethodHash string `json:"methodHash,omitempty"`
	// Method, File and Line locate the resolved site in source.
	Method string `json:"method,omitempty"`
	File   string `json:"file,omitempty"`
	Line   int    `json:"line,omitempty"`
	// CacheHit reports whether this verdict was answered from a cached
	// program proof (no analysis ran for it).
	CacheHit bool `json:"cacheHit"`
}

// ProverStats count what the cache saved.
type ProverStats struct {
	// AnalysisRuns counts full analysis-suite executions (one per distinct
	// program content hash).
	AnalysisRuns int `json:"analysisRuns"`
	// Queries counts ProveSites calls and SiteQueries individual refs.
	Queries     int `json:"queries"`
	SiteQueries int `json:"siteQueries"`
	// CacheHits counts refs answered from a cached program proof.
	CacheHits int `json:"cacheHits"`
}

// Prover owns the content-hash-keyed proof cache. Safe for concurrent use.
type Prover struct {
	// LibraryFile classifies source files as library code for anchor
	// resolution; nil uses the default (the synthetic stdlib and the
	// collections library).
	LibraryFile func(file string) bool

	mu     sync.Mutex
	proofs map[string]*programProof
	stats  ProverStats
}

// NewProver returns an empty prover.
func NewProver() *Prover {
	return &Prover{proofs: make(map[string]*programProof)}
}

func defaultLibraryFile(file string) bool {
	return file == "" || file == "<stdlib>" || strings.Contains(file, "collections")
}

// programProof is one program's distilled analysis results: everything a
// verdict lookup needs, with the heavyweight solver state released.
type programProof struct {
	fingerprint string

	prog *bytecode.Program
	cg   *CallGraph
	flow *Flow
	esc  *Escape
	pt   *PointsTo

	// killOf maps a held site to the kill that frees it.
	killOf map[int32]*FieldKill
	// siteByElem maps "Class.method:line" chain elements to the lowest
	// allocation site id they describe.
	siteByElem map[string]int32
	// methodHash caches per-method content hashes.
	methodHash map[int32]string
}

// Proof runs (or recalls) the analysis suite for a program and returns its
// proof handle. ProveSites is the batch veneer over this.
func (pr *Prover) proof(p *bytecode.Program) *programProof {
	fp := bytecode.ProgramHash(p)
	pr.mu.Lock()
	if pp, ok := pr.proofs[fp]; ok {
		pr.mu.Unlock()
		return pp
	}
	pr.mu.Unlock()

	// Analyze outside the lock: concurrent callers proving the same new
	// program may race to analyze, but the results are deterministic and
	// the first store wins, so the cache stays consistent.
	pp := analyzeProgram(p, fp)

	pr.mu.Lock()
	defer pr.mu.Unlock()
	if existing, ok := pr.proofs[fp]; ok {
		return existing
	}
	pr.stats.AnalysisRuns++
	pr.proofs[fp] = pp
	return pp
}

func analyzeProgram(p *bytecode.Program, fp string) *programProof {
	cg := BuildCallGraph(p)
	flow := RunFlow(p, cg)
	esc := ComputeEscape(p, cg)
	pt := SolvePointsTo(p, cg)
	hl := ComputeHeapLiveness(p, cg, pt)

	pp := &programProof{
		fingerprint: fp,
		prog:        p,
		cg:          cg,
		flow:        flow,
		esc:         esc,
		pt:          pt,
		killOf:      make(map[int32]*FieldKill),
		siteByElem:  make(map[string]int32),
		methodHash:  make(map[int32]string),
	}
	for i := range hl.Kills {
		k := &hl.Kills[i]
		for _, s := range k.HeldSites {
			if _, taken := pp.killOf[s]; !taken {
				pp.killOf[s] = k
			}
		}
	}
	for i := range p.Sites {
		s := &p.Sites[i]
		// Desc is "Class.method:line (what)"; the chain element is the
		// part before the parenthesized kind.
		elem := s.Desc
		if cut := strings.LastIndex(elem, " ("); cut >= 0 {
			elem = elem[:cut]
		}
		if _, taken := pp.siteByElem[elem]; !taken {
			pp.siteByElem[elem] = s.ID
		}
	}
	return pp
}

func (pp *programProof) hashOf(mid int32) string {
	if mid < 0 || int(mid) >= len(pp.prog.Methods) {
		return ""
	}
	if h, ok := pp.methodHash[mid]; ok {
		return h
	}
	h := bytecode.MethodHash(pp.prog, pp.prog.Methods[mid])
	pp.methodHash[mid] = h
	return h
}

func (pp *programProof) sourceFileOf(mid int32) string {
	if mid < 0 || int(mid) >= len(pp.prog.Methods) {
		return ""
	}
	cls := pp.prog.Methods[mid].Class
	if cls < 0 || int(cls) >= len(pp.prog.Classes) {
		return ""
	}
	return pp.prog.Classes[cls].SourceFile
}

// ProveSites answers one verdict per reference, running the analysis suite
// at most once (and not at all when the program's content hash is already
// cached). Verdict order matches reference order; the call is deterministic
// for a fixed program and reference list.
func (pr *Prover) ProveSites(p *bytecode.Program, refs []SiteRef) ([]SiteVerdict, error) {
	if p == nil {
		return nil, fmt.Errorf("analysis: ProveSites on nil program")
	}
	pr.mu.Lock()
	pr.stats.Queries++
	_, cached := pr.proofs[bytecode.ProgramHash(p)]
	pr.mu.Unlock()

	pp := pr.proof(p)
	out := make([]SiteVerdict, 0, len(refs))
	libFile := pr.LibraryFile
	if libFile == nil {
		libFile = defaultLibraryFile
	}
	for _, ref := range refs {
		v := pp.verdict(ref, libFile)
		v.CacheHit = cached
		out = append(out, v)
	}
	pr.mu.Lock()
	pr.stats.SiteQueries += len(refs)
	if cached {
		pr.stats.CacheHits += len(refs)
	}
	pr.mu.Unlock()
	return out, nil
}

// Stats returns a snapshot of the cache counters.
func (pr *Prover) Stats() ProverStats {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.stats
}

// SortVerdicts orders verdicts by status, then site, then reference — a
// total deterministic order for reports that merge several batches.
func SortVerdicts(vs []SiteVerdict) {
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].Status != vs[j].Status {
			return vs[i].Status < vs[j].Status
		}
		if vs[i].Site != vs[j].Site {
			return vs[i].Site < vs[j].Site
		}
		return vs[i].Ref.Desc < vs[j].Ref.Desc
	})
}

// verdict resolves one reference and classifies it.
func (pp *programProof) verdict(ref SiteRef, libFile func(string) bool) SiteVerdict {
	v := SiteVerdict{Ref: ref, Site: -1, Anchor: -1, Status: VerdictUnknown}
	elems := ref.Elements()
	// Resolve innermost-out: the first element that names an allocation
	// site is the allocation itself; the innermost one in application
	// code is the anchor.
	for i := len(elems) - 1; i >= 0; i-- {
		id, ok := pp.siteByElem[elems[i]]
		if !ok {
			continue
		}
		if v.Site < 0 {
			v.Site = id
			v.Desc = pp.prog.Sites[id].Desc
		}
		if v.Anchor < 0 && !libFile(pp.sourceFileOf(pp.prog.Sites[id].Method)) {
			v.Anchor = id
			v.AnchorDesc = pp.prog.Sites[id].Desc
		}
	}
	if v.Site < 0 {
		return v
	}
	if v.Anchor < 0 {
		v.Anchor, v.AnchorDesc = v.Site, v.Desc
	}
	site := &pp.prog.Sites[v.Site]
	mid := site.Method
	v.MethodHash = pp.hashOf(mid)
	v.Line = int(site.Line)
	v.File = pp.sourceFileOf(mid)
	if mid >= 0 && int(mid) < len(pp.prog.Methods) {
		m := pp.prog.Methods[mid]
		if m.Class >= 0 {
			v.Method = pp.prog.Classes[m.Class].Name + "." + m.Name
		} else {
			v.Method = m.Name
		}
	}

	if mid < 0 || !pp.cg.Reachable[mid] {
		v.Status = VerdictNone
		v.Evidence = "allocating method unreachable"
		return v
	}
	if k, ok := pp.killOf[v.Site]; ok {
		v.Status = VerdictProved
		v.Kind = KindPhaseKill
		v.Evidence = fmt.Sprintf("heap liveness proves %s dead past the guard at pc %d (%s); a null store on the guard's false edge frees %d sites",
			k.Path, k.GuardPC, k.Bound, len(k.HeldSites))
		return v
	}
	if !pp.flow.SiteUsed(v.Site) {
		v.Status = VerdictProved
		v.Kind = KindDeadAlloc
		v.Evidence = "flow analysis proves objects from the site are never used outside construction"
		return v
	}
	if !pp.flow.SiteObserved(v.Site) {
		v.Status = VerdictPlausible
		v.Kind = KindWriteOnly
		v.Evidence = "object state is written but never read back; profile evidence decides removal"
		return v
	}
	if pp.esc.SiteEscape(v.Site) == EscapeNone && !pp.pt.HeldOutside(v.Site, nil) {
		v.Status = VerdictPlausible
		v.Kind = KindAssignNull
		v.Evidence = "points-to confines the object to locals of its allocating method; nulling the last holder frees it"
		return v
	}
	v.Status = VerdictNone
	return v
}
