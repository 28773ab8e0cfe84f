package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportHooks are exported declarations in internal/ that only another
// package's tests call, keyed package.Receiver.Name. Each entry names
// the tests that need the hook.
var exportHooks = map[string]string{
	// Arms the power cut a given number of I/Os ahead, so a cut can
	// land inside a phase that starts mid-run.
	"device.FaultPlan.ArmCut": "TestCrashAutoRebuild (internal/pfs); TestFillFailsMidRunDemand, TestFillFailsMidRunReadahead, TestFillFailsMidRunPrefetch (internal/fsys)",
}

// stdlibMethods are method names the standard library calls through
// its own interfaces (error, fmt.Stringer, errors.Unwrap), which no
// scanned file declares.
var stdlibMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// TestExportsHaveProductionCallers fails when an exported package-level
// declaration in internal/ is named only in _test.go files: a
// component API needs a caller in one of the instantiations (cmd/, or
// internal/ itself) or in the frozen benchmark/ module. The scan goes
// by name, not by type, so a name any non-test file mentions counts as
// called. Methods of unexported types are not package API, and a method
// whose name some interface declares is called through it; both are
// skipped.
func TestExportsHaveProductionCallers(t *testing.T) {
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}    // names non-test code mentions
	inIface := map[string]bool{} // method names some interface declares
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declared := map[*ast.Ident]bool{}
			record := func(id *ast.Ident, key string) {
				declared[id] = true
				if root == "internal" && id.IsExported() {
					decls = append(decls, decl{f.Name.Name + "." + key, id.Name, fset.Position(id.Pos()).String()})
				}
			}
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					if dl.Recv == nil {
						record(dl.Name, dl.Name.Name)
					} else if recv := recvName(dl.Recv.List[0].Type); ast.IsExported(recv) {
						record(dl.Name, recv+"."+dl.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range dl.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							record(s.Name, s.Name.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								record(n, n.Name)
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							inIface[id.Name] = true
						}
					}
				case *ast.Ident:
					if !declared[n] {
						used[n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var bad []string
	hooks := map[string]bool{}
	for _, d := range decls {
		if used[d.name] || inIface[d.name] || stdlibMethods[d.name] {
			continue
		}
		if _, ok := exportHooks[d.key]; ok {
			hooks[d.key] = true
			continue
		}
		bad = append(bad, d.key+" ("+d.pos+")")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported %s is named only by tests: delete it, unexport it or move it into its package's _test.go files", b)
	}
	for key := range exportHooks {
		if !hooks[key] {
			t.Errorf("exportHooks entry %s is stale: it is gone or has a production caller", key)
		}
	}
}

// recvName is the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
