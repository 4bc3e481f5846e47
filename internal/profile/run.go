package profile

import (
	"dragprof/internal/bytecode"
	"dragprof/internal/vm"
)

// Run executes prog under full drag instrumentation and returns the
// resulting profile alongside the VM (for output and cost inspection).
// cfg.Listener and the heap free listener are installed by Run;
// cfg.GCInterval defaults to the paper's 100 KB. The returned error is the
// program's own failure, if any — a profile is still produced for programs
// that die with an uncaught exception, matching the tool's behaviour on
// crashing applications.
func Run(prog *bytecode.Program, name string, cfg vm.Config) (*Profile, *vm.VM, error) {
	rec := NewRecorder()
	cfg.Listener = rec
	if cfg.GCInterval == 0 {
		cfg.GCInterval = DefaultGCInterval
	}
	m, err := vm.New(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	hp := m.Heap()
	hp.SetFreeListener(rec.freeListener(hp.Clock))
	runErr := m.Run()
	rec.Finish(hp)
	p := Snapshot(name, prog, m, rec, cfg.GCInterval)
	if cfg.SampleRate > 0 && cfg.SampleRate < 1 {
		p.SampleRate = cfg.SampleRate
	}
	return p, m, runErr
}

// Snapshot packages a recorder's trailers with the program's site, chain,
// method and class tables into a self-contained profile.
func Snapshot(name string, prog *bytecode.Program, m *vm.VM, rec *Recorder, interval int64) *Profile {
	p := &Profile{
		Name:       name,
		Records:    rec.Records(),
		Sites:      append([]bytecode.Site(nil), prog.Sites...),
		ChainNodes: append([]vm.ChainNode(nil), m.Chains().Nodes()...),
		FinalClock: m.Heap().Clock(),
		GCInterval: interval,
	}
	p.MethodNames = make([]string, len(prog.Methods))
	p.MethodFiles = make([]string, len(prog.Methods))
	for i, meth := range prog.Methods {
		qn := meth.Name
		if meth.Class >= 0 {
			qn = prog.Classes[meth.Class].Name + "." + meth.Name
			p.MethodFiles[i] = prog.Classes[meth.Class].SourceFile
		}
		p.MethodNames[i] = qn
	}
	p.ClassNames = make([]string, len(prog.Classes))
	for i, c := range prog.Classes {
		p.ClassNames[i] = c.Name
	}
	return p
}

// ClassName renders a record's allocated type.
func (p *Profile) ClassName(r *Record) string {
	if r.Array {
		return r.Elem.String() + "[]"
	}
	if r.Class >= 0 && int(r.Class) < len(p.ClassNames) {
		return p.ClassNames[r.Class]
	}
	return "<unknown>"
}

// Reported filters out the records the paper excludes from analysis:
// interned constant-pool objects (Class objects do not exist as heap
// objects in this VM, so their exclusion is structural).
func (p *Profile) Reported() []*Record {
	out := make([]*Record, 0, len(p.Records))
	for _, r := range p.Records {
		if !r.Interned {
			out = append(out, r)
		}
	}
	return out
}
