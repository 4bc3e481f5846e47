package transform

import (
	"fmt"
	"sort"

	"dragprof/internal/analysis"
	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
)

// Action records one rewrite the planner applied or rejected.
type Action struct {
	// Site is the allocation site targeted (for a field kill, the first
	// site the kill frees).
	Site int32
	// SiteDesc is its printable description.
	SiteDesc string
	// Strategy is "dead-code removal", "assign null (phase-guarded field
	// kill)", "lazy allocation" or "assign null".
	Strategy string
	// Tier is TierProved or TierValidated.
	Tier string
	// Applied is false when a validation rejected the rewrite; Reason
	// then explains why.
	Applied bool
	Reason  string
}

// Rewrite tiers.
const (
	// TierProved rewrites are proved sound by the static analyses alone
	// and need no profile: never-used removal and phase-guarded field
	// kills.
	TierProved = "proved"
	// TierValidated rewrites are selected by a profiled lifetime pattern
	// and checked by the static analyses before the bytecode is edited.
	TierValidated = "validated"
)

// Candidate is one drag-hot allocation site a profile ranked, with the
// lifetime pattern the profile classified it under.
type Candidate struct {
	Site    int32
	Pattern drag.Pattern
}

// Rewrite is the optimizing compiler the paper projects (Section 5): the
// profile ranks sites, the static analyses decide, and one applier edits
// the bytecode. It runs in two tiers.
//
// The proved tier always runs first and consults no profile: dead-code
// removal of never-used allocations (flow analysis proves no object is
// used, removal validation proves the allocation effect-free) and
// phase-guarded field null-stores proved by the heap liveness pass.
//
// The validated tier then visits each candidate the proved tier did not
// cover and applies the rewrite its pattern suggests — constructor-field
// lazy allocation, or null assignment after the last use of the local
// holding the object — once the analyses validate it. Patterns with no
// rewrite are ignored, dead code among them: removal needs the flow
// analysis to prove the site never used, and the proved tier already
// attempted every reachable site it proves. So are assign-null candidates
// whose object is not stored in a local: null assignment here clears only
// locals, and the proved tier's phase kills are the one path that nulls a
// field. Candidates are deduplicated and visited in site-id order, lazy
// allocation (which grows and reroutes code) first, then null insertion
// (which shifts pcs), so the transformed bytecode does not depend on how
// the profile ranked them. Other unsuitable sites produce rejected
// actions, not errors.
//
// The program is modified in place and re-verified afterwards.
func Rewrite(p *bytecode.Program, cands []Candidate) ([]Action, error) {
	v := NewValidator(p)
	pt := analysis.SolvePointsTo(p, v.CG)
	hl := analysis.ComputeHeapLiveness(p, v.CG, pt)
	var actions []Action
	// covered holds the sites the proved tier attempted and the sites any
	// applied rewrite already handled; the validated tier skips them.
	covered := make(map[int32]bool)

	// Never-used allocations. NopOut keeps every pc stable, so the kill
	// plans below survive the edit.
	for _, site := range v.Flow.NeverUsedSites() {
		a, err := findAllocation(p, site)
		if err != nil || !v.CG.MethodReachable(a.method.ID) {
			continue
		}
		covered[site] = true
		act := Action{Site: site, SiteDesc: p.Sites[site].Desc,
			Strategy: "dead-code removal", Tier: TierProved}
		if err := RemoveDeadAllocation(v, site); err != nil {
			act.Reason = err.Error()
		} else {
			act.Applied = true
		}
		actions = append(actions, act)
	}

	// Proved heap kills: splice `owner.field = null` onto the false
	// edge of the phase guard.
	for i := range hl.Kills {
		k := hl.Kills[i]
		act := Action{Site: -1, SiteDesc: k.Path,
			Strategy: "assign null (phase-guarded field kill)", Tier: TierProved}
		if len(k.HeldSites) > 0 {
			act.Site = k.HeldSites[0]
		}
		if err := applyFieldKill(p, k); err != nil {
			act.Reason = err.Error()
		} else {
			act.Applied = true
			act.Reason = fmt.Sprintf("kill on false edge of guard @%d (iv slot %d < %s) frees %d sites",
				k.GuardPC, k.IVSlot, k.Bound, len(k.HeldSites))
			for _, s := range k.HeldSites {
				covered[s] = true
			}
		}
		actions = append(actions, act)
	}

	seen := make(map[Candidate]bool, len(cands))
	var todo []Candidate
	for _, c := range cands {
		if seen[c] || stage(c.Pattern) < 0 || c.Site < 0 || int(c.Site) >= len(p.Sites) {
			continue
		}
		seen[c] = true
		if c.Pattern == drag.PatternAssignNull && !storedInLocal(p, c.Site) {
			continue
		}
		todo = append(todo, c)
	}
	sort.Slice(todo, func(i, j int) bool {
		if si, sj := stage(todo[i].Pattern), stage(todo[j].Pattern); si != sj {
			return si < sj
		}
		return todo[i].Site < todo[j].Site
	})
	for _, c := range todo {
		if covered[c.Site] {
			continue
		}
		act := applyValidated(v, c)
		if act.Applied {
			covered[c.Site] = true
		}
		actions = append(actions, act)
	}

	if err := bytecode.Verify(p); err != nil {
		return actions, fmt.Errorf("transform: program fails verification after rewriting: %w", err)
	}
	return actions, nil
}

// stage orders the validated rewrites: lazy allocation, then null
// insertion; -1 marks a pattern with no rewrite.
func stage(p drag.Pattern) int {
	switch p {
	case drag.PatternLazyAlloc:
		return 0
	case drag.PatternAssignNull:
		return 1
	}
	return -1
}

// storedInLocal reports whether a site's allocation statement stores the
// new object in a local, the only holder nullifyAroundSite can clear.
func storedInLocal(p *bytecode.Program, site int32) bool {
	st, err := DescribeSite(p, site)
	return err == nil && st.Consumer == bytecode.StoreLocal
}

// applyValidated applies the rewrite a candidate's pattern suggests.
func applyValidated(v *Validator, c Candidate) Action {
	act := Action{Site: c.Site, SiteDesc: v.Prog.Sites[c.Site].Desc, Tier: TierValidated}
	var err error
	switch c.Pattern {
	case drag.PatternLazyAlloc:
		act.Strategy = "lazy allocation"
		act.Reason, err = lazyAllocateSite(v, c.Site)
	case drag.PatternAssignNull:
		act.Strategy = "assign null"
		act.Reason, err = nullifyAroundSite(v.Prog, c.Site)
	}
	if err != nil {
		act.Reason = err.Error()
	} else {
		act.Applied = true
	}
	return act
}

// lazyAllocateSite applies lazy allocation to a constructor field
// initialization `this.f = new C(...)`.
func lazyAllocateSite(v *Validator, site int32) (string, error) {
	stmt, err := DescribeSite(v.Prog, site)
	if err != nil {
		return "", err
	}
	if !stmt.InCtor || stmt.Consumer != bytecode.PutField || !stmt.ReceiverIsThis {
		return "", fmt.Errorf("allocation is not a constructor field initialization")
	}
	plan, err := LazyAllocateField(v, stmt.FieldClass, stmt.FieldSlot, site)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("guarded %d of %d loads; %d insertion points",
		plan.Guarded, plan.Total, len(plan.Insertions)), nil
}

// nullifyAroundSite inserts null assignments after the last uses of the
// local slot that holds the site's objects in the allocating method — the
// automatic form of the paper's assigning-null rewrite for locals.
func nullifyAroundSite(p *bytecode.Program, site int32) (string, error) {
	a, err := findAllocation(p, site)
	if err != nil {
		return "", err
	}
	cons := a.method.Code[a.consumer]
	if cons.Op == bytecode.StoreLocal {
		if n := InsertNullAfterLastUses(a.method, cons.A); n > 0 {
			return fmt.Sprintf("%d null assignments inserted", n), nil
		}
	}
	return "", fmt.Errorf("no dead local holding the object found")
}

// applyFieldKill appends an edge-split stub to the host method and
// retargets the guard's false edge through it:
//
//	guard: ... JumpIfFalse stub
//	...
//	stub:  LoadLocal recv; ConstNull; PutField f  (or ConstNull; PutStatic f)
//	       Jump originalTarget
//
// Appending never shifts a pc, so jump targets and exception ranges in
// the rest of the method stay valid; the stub re-executes on later
// iterations, which is an idempotent null store. Multiple kills sharing
// one guard chain naturally: each stub jumps to the previous target.
func applyFieldKill(p *bytecode.Program, k analysis.FieldKill) error {
	if k.Host < 0 || int(k.Host) >= len(p.Methods) {
		return fmt.Errorf("transform: kill host %d out of range", k.Host)
	}
	m := p.Methods[k.Host]
	g := int(k.GuardPC)
	if g < 0 || g >= len(m.Code) || m.Code[g].Op != bytecode.JumpIfFalse {
		return fmt.Errorf("transform: kill guard pc %d of %s is not a conditional branch", g, m.Name)
	}
	if !k.Static && (k.RecvSlot < 0 || int(k.RecvSlot) >= m.MaxLocals) {
		return fmt.Errorf("transform: kill receiver slot %d invalid in %s", k.RecvSlot, m.Name)
	}
	stub := int32(len(m.Code))
	target := m.Code[g].A // current false-edge target (may be a prior stub)
	line := m.Code[g].Line
	if k.Static {
		m.Code = append(m.Code,
			bytecode.Instr{Op: bytecode.ConstNull, Line: line},
			bytecode.Instr{Op: bytecode.PutStatic, A: k.Slot, B: k.Class, Line: line},
			bytecode.Instr{Op: bytecode.Jump, A: target, Line: line},
		)
	} else {
		m.Code = append(m.Code,
			bytecode.Instr{Op: bytecode.LoadLocal, A: k.RecvSlot, Line: line},
			bytecode.Instr{Op: bytecode.ConstNull, Line: line},
			bytecode.Instr{Op: bytecode.PutField, A: k.Slot, B: k.Class, Line: line},
			bytecode.Instr{Op: bytecode.Jump, A: target, Line: line},
		)
	}
	m.Code[g].A = stub
	return nil
}
