package redbud_test

// Structural guards: properties of the source tree that the other tests
// assume and that `go build ./... && go test ./...` would otherwise not
// notice breaking.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestInternalIsSingleThreaded is what makes "same seed, same bytes on any
// host" a property of the code: no package under internal/ starts a
// goroutine or looks at the host's width, so nothing there can order work
// differently on different machines. Mutexes are allowed — tests call one
// mount from many goroutines. cmd/ is deliberately out of scope: an
// experiment-level worker pool over independent mounts (ROADMAP item 1b)
// would live there.
func TestInternalIsSingleThreaded(t *testing.T) {
	banned := map[string]bool{"GOMAXPROCS": true, "NumCPU": true, "SetFinalizer": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		runtimeName := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "runtime" {
				runtimeName = "runtime"
				if imp.Name != nil {
					runtimeName = imp.Name.Name
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement under internal/", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == runtimeName && banned[n.Sel.Name] {
					t.Errorf("%s: runtime.%s under internal/", fset.Position(n.Pos()), n.Sel.Name)
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

// TestPfsHasOneDataPath keeps the replicated/unreplicated fork from growing
// back: every file operation in internal/pfs is one body over replica sets,
// and whether a replica manager exists is asked only by the set helpers it
// goes through, by object creation, and by the mount plumbing around the
// data path — never by an operation itself.
func TestPfsHasOneDataPath(t *testing.T) {
	mayAsk := map[string]bool{
		// the set helpers (internal/pfs/replica.go)
		"writeTargetsLocked": true, "membersLocked": true, "bookReplicaLocked": true,
		"steerReadLocked": true, "downLocked": true, "suspectLocked": true, "forgetLocked": true,
		// object creation: placement and registration of the sets
		"createObjectsLocked": true,
		// mount plumbing, failure injection, repair and recovery
		"Instrument": true, "SetTracer": true, "Open": true,
		"ReviveOST": true, "RepairStep": true, "CrashRecover": true,
	}
	files, err := filepath.Glob("internal/pfs/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || mayAsk[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				cmp, ok := n.(*ast.BinaryExpr)
				if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
					return true
				}
				if isRepField(cmp.X) && isNil(cmp.Y) || isNil(cmp.X) && isRepField(cmp.Y) {
					t.Errorf("%s: %s tests whether the mount is replicated; go through a set helper",
						fset.Position(cmp.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
}

// TestRPCHasOneCallPath keeps the transport decorator stack from growing
// back: in internal/rpc the only method named Call is Conn.Call — retry,
// blackholes, fault draws and the wire are one loop — and no interface
// declares Call for a second implementation to slot in behind.
func TestRPCHasOneCallPath(t *testing.T) {
	files, err := filepath.Glob("internal/rpc/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "Call" && recvName(n.Recv.List[0].Type) != "Conn" {
					t.Errorf("%s: %s.Call is a second call path; fold it into Conn.Call",
						fset.Position(n.Pos()), recvName(n.Recv.List[0].Type))
				}
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							if name.Name == "Call" {
								t.Errorf("%s: interface %s declares Call; Conn.Call is the only call path",
									fset.Position(n.Pos()), n.Name.Name)
							}
						}
					}
				}
			}
			return true
		})
	}
}

// TestMdfsDecodesOnce keeps every reader of the metadata image — the
// operations, Remount, RebuildAllocator and fsck — on one set of
// decoders: in internal/mdfs each on-disk structure is decoded by exactly
// one function, whatever its receiver. A decoder is known by its name with
// a leading "read" or "decode" dropped, so a second copy of one under
// another receiver — a checker's own bounds-checked mirror of the mount's
// decoder — fails here instead of drifting apart from the first.
func TestMdfsDecodesOnce(t *testing.T) {
	structures := []struct{ key, what string }{
		{"super", "the superblock root"},
		{"inodeAt", "an inode record at a location"},
		{"mapping", "a layout mapping"},
		{"spillChain", "a spill chain"},
		{"dirent", "a directory entry"},
		{"tableEntry", "a directory-table entry"},
	}
	files, err := filepath.Glob("internal/mdfs/*.go")
	if err != nil {
		t.Fatal(err)
	}
	decoders := map[string][]string{}
	for _, s := range structures {
		decoders[s.key] = nil
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := strings.TrimPrefix(strings.TrimPrefix(fn.Name.Name, "read"), "decode")
			if key == "" {
				continue
			}
			key = strings.ToLower(key[:1]) + key[1:]
			if _, ok := decoders[key]; !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			decoders[key] = append(decoders[key], name)
		}
	}
	for _, s := range structures {
		if got := decoders[s.key]; len(got) != 1 {
			t.Errorf("%s is decoded by %d functions, want 1: %s", s.what, len(got), strings.Join(got, ", "))
		}
	}
}

// recvName is the type name of a method receiver, pointer or not.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func isRepField(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "rep"
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// TestBenchModuleVets builds bench/ — the benchmark BENCHMARK.json
// declares, a module of its own that `./...` from the root does not reach
// — so a signature change under internal/ that stops it compiling fails
// tier-1 instead of waiting for `make benchtest`.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on another module")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goTool, "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
