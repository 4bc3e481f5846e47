// Package analyzers holds the repo's own static checks — the linter turned
// on itself. Two rules, both born from real review friction:
//
//   - exitcheck: os.Exit anywhere except internal/cli (which owns the
//     exit-code vocabulary) or the single `os.Exit(run())` trampoline in a
//     command's func main. Scattered os.Exit calls skip deferred cleanup
//     and fragment the exit-code contract documented in the README.
//
//   - storelock: writes to the mutex-guarded fields of store.Store (the
//     running totals, dirty set, summaries and quarantine records) or of
//     its shards (the run set) from a function that neither takes a lock,
//     nor declares lock-free access in its name (the *Locked suffix
//     convention), nor constructed the store or shard itself. Every store
//     corruption bug so far has been exactly this shape.
//
//   - gotrack: goroutine launches in the long-lived service packages
//     (internal/server, internal/server/events, internal/store) and the
//     dragserved daemon
//     (cmd/dragserved) that no lifecycle WaitGroup tracks. A `go`
//     statement there must be immediately preceded by the owner's
//     wg.Add(...) call — the shutdown path waits on that group, and an
//     untracked goroutine is exactly the compactor-outliving-Close
//     bug class the lifecycle helpers exist to prevent.
//
// The checks are built on go/ast alone — no external analysis framework —
// so they run anywhere the toolchain does, in the same spirit as
// go/analysis single-pass analyzers: parse, walk, report positions.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	// File is the path relative to the checked root; Line the 1-based
	// source line.
	File string `json:"file"`
	Line int    `json:"line"`
	// Rule is "exitcheck", "storelock" or "gotrack".
	Rule string `json:"rule"`
	// Message describes the violation.
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Rule, f.Message)
}

// guardedStoreFields are the store.Store and store shard fields their
// mutexes protect.
var guardedStoreFields = map[string]bool{
	// Store
	"numRuns": true, "bytes": true, "salvaged": true, "dirty": true,
	"compacted": true, "quarantined": true,
	// shard
	"runs": true,
}

// CheckDir walks every non-test .go file under root (skipping vendor-ish
// and hidden directories) and returns the findings sorted by file, line,
// rule. A clean tree returns an empty, non-nil slice.
func CheckDir(root string) ([]Finding, error) {
	findings := []Finding{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The root is never skipped, whatever its basename ("..", a
			// dot-directory checkout, ...) happens to be.
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analyzers: %w", err)
		}
		findings = append(findings, checkFile(fset, file, rel)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		if findings[i].Line != findings[j].Line {
			return findings[i].Line < findings[j].Line
		}
		return findings[i].Rule < findings[j].Rule
	})
	return findings, nil
}

// CheckFiles lints an explicit file list (the `go vet -vettool` unit shape:
// one compilation unit's GoFiles). Test files are skipped, matching
// CheckDir; paths are reported as given.
func CheckFiles(paths []string) ([]Finding, error) {
	findings := []Finding{}
	fset := token.NewFileSet()
	for _, path := range paths {
		name := filepath.Base(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		findings = append(findings, checkFile(fset, file, path)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		if findings[i].Line != findings[j].Line {
			return findings[i].Line < findings[j].Line
		}
		return findings[i].Rule < findings[j].Rule
	})
	return findings, nil
}

// checkFile applies every rule to one parsed file.
func checkFile(fset *token.FileSet, file *ast.File, rel string) []Finding {
	var out []Finding
	out = append(out, exitcheck(fset, file, rel)...)
	out = append(out, storelock(fset, file, rel)...)
	out = append(out, gotrack(fset, file, rel)...)
	return out
}

// exitcheck flags os.Exit calls outside their two sanctioned homes.
func exitcheck(fset *token.FileSet, file *ast.File, rel string) []Finding {
	// internal/cli owns the vocabulary and may call os.Exit freely.
	dir := filepath.ToSlash(filepath.Dir(rel))
	if dir == "internal/cli" || strings.HasSuffix(dir, "/internal/cli") {
		return nil
	}
	var out []Finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		// The trampoline: package main's func main may call os.Exit with
		// a single function-call argument (`os.Exit(run())`), so the whole
		// program funnels through one classified return code.
		trampoline := file.Name.Name == "main" && fn.Name.Name == "main" && fn.Recv == nil
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgCall(call, "os", "Exit") {
				return true
			}
			if trampoline && len(call.Args) == 1 {
				if _, isCall := call.Args[0].(*ast.CallExpr); isCall {
					return true
				}
			}
			out = append(out, Finding{
				File: rel, Line: fset.Position(call.Pos()).Line,
				Rule: "exitcheck",
				Message: "os.Exit outside internal/cli; return an exit code through the" +
					" os.Exit(run()) trampoline instead",
			})
			return true
		})
	}
	return out
}

// storelock flags guarded store field writes in functions that never take
// the lock. The analysis is per-function and syntactic: a function is
// exempt if its name ends in "Locked" (the caller-holds-the-lock
// convention), if its body locks <x>.mu, or if the mutated variable was
// built in-function from a Store or shard composite literal (one nobody
// else can see yet).
func storelock(fset *token.FileSet, file *ast.File, rel string) []Finding {
	if file.Name.Name != "store" {
		return nil
	}
	var out []Finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || strings.HasSuffix(fn.Name.Name, "Locked") {
			continue
		}
		locks := false
		owned := map[string]bool{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
					if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "mu" {
						locks = true
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isStoreLiteral(rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							owned[id.Name] = true
						}
					}
				}
			}
			return true
		})
		if locks {
			continue
		}
		report := func(pos token.Pos, field string) {
			out = append(out, Finding{
				File: rel, Line: fset.Position(pos).Line,
				Rule: "storelock",
				Message: fmt.Sprintf("write to guarded store field %s without holding mu;"+
					" lock, or mark the function with the Locked suffix", field),
			})
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field, target := guardedWrite(lhs); field != "" && !owned[target] {
						report(lhs.Pos(), field)
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
					if field, target := guardedWrite(n.Args[0]); field != "" && !owned[target] {
						report(n.Pos(), field)
					}
				}
			case *ast.IncDecStmt:
				if field, target := guardedWrite(n.X); field != "" && !owned[target] {
					report(n.Pos(), field)
				}
			}
			return true
		})
	}
	return out
}

// gotrack flags `go` statements in the server, events and store packages —
// and in the dragserved daemon itself, whose listener goroutine must
// outlive-proof shutdown the same way — that are not immediately preceded
// by a lifecycle
// WaitGroup Add call in the same statement list. The shutdown paths
// (Server.Close, dragserved's lwg.Wait, the parallel analyzer's wg.Wait)
// only wait for goroutines the group knows about; launching one without
// the adjacent wg.Add(...) detaches it from the lifecycle.
func gotrack(fset *token.FileSet, file *ast.File, rel string) []Finding {
	dir := filepath.ToSlash(filepath.Dir(rel))
	daemon := dir == "cmd/dragserved" || strings.HasSuffix(dir, "/cmd/dragserved")
	switch file.Name.Name {
	case "server", "store", "events":
	default:
		if !daemon {
			return nil
		}
	}
	var out []Finding
	check := func(list []ast.Stmt) {
		for i, st := range list {
			g, ok := st.(*ast.GoStmt)
			if !ok {
				continue
			}
			if i > 0 && isWaitGroupAdd(list[i-1]) {
				continue
			}
			out = append(out, Finding{
				File: rel, Line: fset.Position(g.Pos()).Line,
				Rule: "gotrack",
				Message: "untracked goroutine launch; call the lifecycle WaitGroup's" +
					" Add immediately before the go statement so shutdown can wait for it",
			})
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			check(n.List)
		case *ast.CaseClause:
			check(n.Body)
		case *ast.CommClause:
			check(n.Body)
		}
		return true
	})
	return out
}

// isWaitGroupAdd matches an expression statement calling Add on something
// named like a WaitGroup: wg.Add(1), s.wg.Add(1), workers.Add(n), ...
func isWaitGroupAdd(st ast.Stmt) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" {
		return false
	}
	name := ""
	switch x := sel.X.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	}
	name = strings.ToLower(name)
	return strings.Contains(name, "wg") || strings.Contains(name, "waitgroup") ||
		strings.Contains(name, "workers")
}

// guardedWrite reports whether an lvalue expression writes a guarded Store
// field, returning the field and the root variable name ("" when not).
// Handles s.field, s.field[k] and parenthesization.
func guardedWrite(e ast.Expr) (field, target string) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			id, ok := x.X.(*ast.Ident)
			if !ok || !guardedStoreFields[x.Sel.Name] {
				return "", ""
			}
			return x.Sel.Name, id.Name
		default:
			return "", ""
		}
	}
}

// isStoreLiteral matches `Store{...}`, `shard{...}` and their addresses.
func isStoreLiteral(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	id, ok := cl.Type.(*ast.Ident)
	return ok && (id.Name == "Store" || id.Name == "shard")
}

// isPkgCall matches a call of the form pkg.Name(...).
func isPkgCall(call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
