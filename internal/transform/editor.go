// Package transform implements the automatic program transformations the
// paper forecasts for optimizing compilers (Section 5): inserting null
// assignments after a reference's last use (validated by liveness),
// removing dead allocations (validated by indirect-usage, constructor
// purity and exception analysis), lazy allocation with null-test guards at
// every possible first use (minimal code insertion), and null stores the
// heap liveness pass proves past a phase guard. One planner, Rewrite,
// applies them in two tiers: the rewrites the static analyses prove on
// their own, then, at the allocation sites a drag profile ranks, the
// rewrite each site's lifetime pattern suggests once the analyses
// validate it.
package transform

import (
	"fmt"

	"dragprof/internal/bytecode"
)

// Editor performs position-stable edits on a method body: instructions can
// be replaced by Nop in place, and new instructions can be inserted after a
// pc. Apply rebuilds the code with jump targets and exception tables
// remapped. Inserted instructions belong to the fall-through edge of the
// pc they follow: control arriving by jump to the next pc skips them.
type Editor struct {
	m          *bytecode.Method
	insertions map[int][]bytecode.Instr
	nops       map[int]bool
}

// NewEditor returns an editor over the method.
func NewEditor(m *bytecode.Method) *Editor {
	return &Editor{
		m:          m,
		insertions: make(map[int][]bytecode.Instr),
		nops:       make(map[int]bool),
	}
}

// InsertAfter schedules instructions on the fall-through edge after pc.
func (e *Editor) InsertAfter(pc int, instrs ...bytecode.Instr) {
	e.insertions[pc] = append(e.insertions[pc], instrs...)
}

// NopOut schedules the instruction range [from, to] (inclusive) to be
// replaced by Nops. The pc numbering is unchanged, so no remapping is
// needed for this edit alone.
func (e *Editor) NopOut(from, to int) {
	for pc := from; pc <= to; pc++ {
		e.nops[pc] = true
	}
}

// HasJumpInto reports whether any jump or handler targets a pc strictly
// inside (from, to] — removal of the range would then change control flow.
func HasJumpInto(m *bytecode.Method, from, to int) bool {
	inside := func(t int32) bool { return int(t) > from && int(t) <= to }
	for _, in := range m.Code {
		switch in.Op {
		case bytecode.Jump, bytecode.JumpIfFalse, bytecode.JumpIfTrue,
			bytecode.JumpIfNull, bytecode.JumpIfNonNull:
			if inside(in.A) {
				return true
			}
		}
	}
	for _, ex := range m.Exceptions {
		if inside(ex.Handler) || inside(ex.From) || (int(ex.To) > from && int(ex.To) <= to) {
			return true
		}
	}
	return false
}

// Apply rebuilds the method body with all scheduled edits.
func (e *Editor) Apply() {
	old := e.m.Code
	// newPC[i] is the new index of old instruction i.
	newPC := make([]int32, len(old)+1)
	var out []bytecode.Instr
	for pc, in := range old {
		newPC[pc] = int32(len(out))
		if e.nops[pc] {
			out = append(out, bytecode.Instr{Op: bytecode.Nop, Line: in.Line})
		} else {
			out = append(out, in)
		}
		if ins, ok := e.insertions[pc]; ok {
			out = append(out, ins...)
		}
	}
	newPC[len(old)] = int32(len(out))

	// Remap jump targets on the original instructions (inserted
	// instructions must not contain jumps; the transformations here
	// never insert any).
	for pc, in := range old {
		if e.nops[pc] {
			continue
		}
		switch in.Op {
		case bytecode.Jump, bytecode.JumpIfFalse, bytecode.JumpIfTrue,
			bytecode.JumpIfNull, bytecode.JumpIfNonNull:
			out[newPC[pc]].A = newPC[in.A]
		}
	}
	for i := range e.m.Exceptions {
		ex := &e.m.Exceptions[i]
		ex.From = newPC[ex.From]
		ex.To = newPC[ex.To]
		ex.Handler = newPC[ex.Handler]
	}
	e.m.Code = out
}

// stmtError formats a transformation failure.
func stmtError(m *bytecode.Method, pc int, format string, args ...any) error {
	return fmt.Errorf("transform: %s pc=%d: %s", m.Name, pc, fmt.Sprintf(format, args...))
}
