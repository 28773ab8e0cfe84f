package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportHooks are exported declarations in internal/ that only another
// package's tests call, keyed pkgpath.Receiver.Name. Each entry names
// the tests that need the hook.
var exportHooks = map[string]string{
	// Arms the power cut a given number of I/Os ahead, so a cut can
	// land inside a phase that starts mid-run.
	"repro/internal/device.FaultPlan.ArmCut": "TestCrashAutoRebuild (internal/pfs); TestFillFailsMidRunDemand, TestFillFailsMidRunReadahead, TestFillFailsMidRunPrefetch (internal/fsys)",
	// Asks whether a block is cached without touching it: any read
	// claims, fills or promotes the frame it asks about.
	"repro/internal/cache.Cache.Peek": "TestFillFailsMidRunReadahead, TestFillFailsMidRunPrefetch (internal/fsys); Example_multimedia (examples)",
	// The manual override: starts the supervised repair of a member on
	// the caller's task, with no device evidence of its death, so a
	// test controls when the repair runs and counts its I/Os alone.
	"repro/internal/health.Members.MarkDead": "TestCrashAutoRebuild, TestSelfHealSecondFaultRefused, TestMarkDeadRightAfterOpenHealsOnce (internal/pfs); TestExitCodeTable (cmd/fsck)",
}

// stdlibMethods are method names the standard library calls through
// its own interfaces (error, fmt.Stringer, errors.Unwrap), which no
// scanned file declares.
var stdlibMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// TestExportsHaveProductionCallers fails when an exported package-level
// declaration in internal/, or an exported method of an exported type
// there, is used only by _test.go files: a component API needs a caller
// in one of the instantiations (cmd/, or internal/ itself) or in the
// frozen benchmark/ module. The scan goes by type, so a test-only
// method fails even when a used declaration shares its name.
func TestExportsHaveProductionCallers(t *testing.T) {
	hooks := map[string]bool{}
	for _, e := range testOnlyExports(t, ".", "benchmark") {
		if _, ok := exportHooks[e.key]; ok {
			hooks[e.key] = true
			continue
		}
		t.Errorf("exported %s (%s) is used only by tests: delete it, unexport it or move it into its package's _test.go files", e.key, e.pos)
	}
	for key := range exportHooks {
		if !hooks[key] {
			t.Errorf("exportHooks entry %s is stale: it is gone or has a production caller", key)
		}
	}
}

// TestExportGateGoesByType runs the scan on testdata/exportgate, whose
// Box.Area only a test calls while production code calls Disc.Area: a
// scan by name passes both.
func TestExportGateGoesByType(t *testing.T) {
	var got []string
	for _, e := range testOnlyExports(t, "testdata/exportgate") {
		got = append(got, e.key)
	}
	if want := []string{"exportgate/internal/shape.Box.Area"}; !reflect.DeepEqual(got, want) {
		t.Errorf("test-only exports = %q, want %q", got, want)
	}
}

// export is an exported declaration, keyed pkgpath.Name or
// pkgpath.Receiver.Name, and where it is declared.
type export struct{ key, pos string }

// testOnlyExports type-checks the non-test files of every package under
// internal/, cmd/ and benchmark/ of the module at root (plus the modules
// in the named subdirectories of it) against the compiler's export data
// for their imports, and returns, sorted by key, the exported
// declarations in internal/ that no such file uses. Methods whose name
// some interface declares, and stdlibMethods, are called through it and
// are skipped.
func testOnlyExports(t *testing.T, root string, mods ...string) []export {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	type pkg struct {
		dir      string
		files    []string
		declares bool // under internal/: its exports are checked
	}
	exportData := map[string]string{} // import path -> export data file
	var srcs []string                 // import paths to check from source
	pkgs := map[string]pkg{}
	for _, m := range append([]string{"."}, mods...) {
		cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Export}}\t{{join .GoFiles \" \"}}", "./...")
		cmd.Dir = filepath.Join(root, m)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", cmd.Dir, err, stderr.String())
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
			f := strings.Split(line, "\t")
			path, dir := f[0], f[1]
			exportData[path] = f[2]
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				continue
			}
			switch top, _, _ := strings.Cut(filepath.ToSlash(rel), "/"); top {
			case "internal", "cmd", "benchmark":
				if _, ok := pkgs[path]; !ok {
					pkgs[path] = pkg{dir, strings.Fields(f[3]), top == "internal"}
					srcs = append(srcs, path)
				}
			}
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exportData[path])
	})
	var decls []export
	used := map[string]bool{}    // objects non-test code uses
	inIface := map[string]bool{} // method names some interface declares
	for _, path := range srcs {
		p := pkgs[path]
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		for _, obj := range info.Uses {
			if key := objKey(obj); key != "" {
				used[key] = true
			}
		}
		for _, obj := range info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					inIface[fn.Name()] = true
				}
			}
		}
		if !p.declares {
			continue
		}
		record := func(obj types.Object, key string) {
			pos := fset.Position(obj.Pos())
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = filepath.ToSlash(rel)
			}
			decls = append(decls, export{key, pos.String()})
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			record(obj, path+"."+name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named, _ := tn.Type().(*types.Named)
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						record(m, path+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	var bad []export
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if !used[d.key] && !inIface[name] && !stdlibMethods[name] {
			bad = append(bad, d)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].key < bad[j].key })
	return bad
}

// objKey is the key of a package-level object or of a method of a named
// type, and "" for anything else (locals, fields, interface methods).
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if named, ok := rt.(*types.Named); ok && !types.IsInterface(named) {
				return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
