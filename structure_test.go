package redbud_test

// Structural guards: properties of the source tree that the other tests
// assume and that `go build ./... && go test ./...` would otherwise not
// notice breaking.

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalIsSingleThreaded is what makes "same seed, same bytes on any
// host" a property of the code: no package under internal/ starts a
// goroutine or looks at the host's width, so nothing there can order work
// differently on different machines. The goroutine ban covers the whole
// module — commands, tests and root included — and so does a ban on
// unsafe: every test drives its mounts from one goroutine (concurrent
// clients are streams interleaved on the simulated timeline), which lets
// TestNoLocks forbid every lock and leaves the race detector nothing to
// find. Code outside internal/ may read the host's width: mifbench
// records it.
func TestInternalIsSingleThreaded(t *testing.T) {
	hostWidth := map[string]bool{"GOMAXPROCS": true, "NumCPU": true}
	fset := token.NewFileSet()
	err := walkGoFiles(false, func(path string) error {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(path, "internal"+string(filepath.Separator))
		runtimeName := ""
		for _, imp := range file.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); p {
			case "runtime":
				runtimeName = "runtime"
				if imp.Name != nil {
					runtimeName = imp.Name.Name
				}
			case "unsafe":
				t.Errorf("%s: imports unsafe", fset.Position(imp.Pos()))
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				if ok && x.Name == runtimeName && (n.Sel.Name == "SetFinalizer" || internal && hostWidth[n.Sel.Name]) {
					t.Errorf("%s: runtime.%s", fset.Position(n.Pos()), n.Sel.Name)
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

// walkGoFiles calls visit with the path of every .go file of the
// repository outside dot-directories and testdata; nested says whether the
// files of nested modules (bench/) count.
func walkGoFiles(nested bool, visit func(path string) error) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if !d.IsDir() {
			if strings.HasSuffix(path, ".go") {
				return visit(path)
			}
			return nil
		}
		if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && !nested {
			return filepath.SkipDir
		}
		return nil
	})
}

// TestSourceIsGofmted formats every Go file of the repository, bench/
// included, and names each one gofmt would change.
func TestSourceIsGofmted(t *testing.T) {
	err := walkGoFiles(true, func(path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		formatted, err := format.Source(src)
		if err != nil {
			return err
		}
		if !bytes.Equal(src, formatted) {
			t.Errorf("%s: not gofmt-formatted; run gofmt -w %s", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoLocks keeps a mount a sequential program: nothing under internal/
// is safe for concurrent use, and a process drives its mounts — with the
// registries and tracers they report into — from one goroutine, so a lock
// there would guard nothing. No non-test file imports sync or sync/atomic (each
// mutex, atomic or other sync value it declares is named), and no
// identifier ends in …Locked, the mark of a helper called with a lock held.
func TestNoLocks(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		base := filepath.Base(filepath.Dir(path))
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Locked") {
				t.Errorf("%s: %s is named …Locked; there is no lock to hold", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		imported := map[string]bool{} // local names of sync and sync/atomic
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "sync" && p != "sync/atomic" {
				continue
			}
			t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = true
		}
		if len(imported) == 0 {
			return nil
		}
		// syncType reports whether e names a type from sync or sync/atomic.
		syncType := func(e ast.Expr) bool {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			if idx, ok := e.(*ast.IndexExpr); ok { // atomic.Pointer[T]
				e = idx.X
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				x, ok := sel.X.(*ast.Ident)
				return ok && imported[x.Name]
			}
			return false
		}
		report := func(pos token.Pos, name string, typ ast.Expr) {
			t.Errorf("%s: %s.%s has type %s", fset.Position(pos), base, name, types.ExprString(typ))
		}
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !syncType(field.Type) {
							continue
						}
						if len(field.Names) == 0 { // embedded
							report(field.Pos(), spec.Name.Name, field.Type)
						}
						for _, n := range field.Names {
							report(n.Pos(), spec.Name.Name+"."+n.Name, field.Type)
						}
					}
				case *ast.ValueSpec:
					if spec.Type != nil && syncType(spec.Type) {
						for _, n := range spec.Names {
							report(n.Pos(), n.Name, spec.Type)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneAbortPoint keeps "an operation commits or leaves no trace" one
// mechanism in internal/mdfs: the store's rewind, Store.Abort, is called
// from finishOp alone, and no error path joins a second error — the mark
// of a hand-written undo, which can fail in its own right.
func TestOneAbortPoint(t *testing.T) {
	files, err := filepath.Glob("internal/mdfs/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var callers []string
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
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "Abort" {
					callers = append(callers, fn.Name.Name)
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "errors" && sel.Sel.Name == "Join" {
					t.Errorf("%s: %s joins a second error into an error path", fset.Position(call.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
	if len(callers) != 1 || callers[0] != "finishOp" {
		t.Errorf("the store's rewind is called from %v, want from finishOp alone", callers)
	}
}

// TestDriversGoThroughApply keeps the experiments on one interpreter:
// Metarates, aging, PostMark, the kernel tree, the micro-benchmark, IOR,
// BTIO, the mixed-stream and sync-pressure runs and the cache bench
// generate op lists and never name a namespace or file method of
// mds.Server, pfs.FS or pfs.File themselves — every such call is
// workload.Apply's, in apply.go. The failover, defrag and crash-sweep
// benches are not ported yet: they still call pfs, and one that no longer
// does must leave the list.
func TestDriversGoThroughApply(t *testing.T) {
	methods := map[string]bool{
		"Mkdir": true, "Create": true, "Lookup": true, "Utime": true, "Unlink": true,
		"Rmdir": true, "ReaddirPlus": true, "StatName": true, "SetLayout": true,
		"Open": true, "Write": true, "Read": true, "Fsync": true, "Close": true, "Delete": true,
		"Sync": true,
	}
	ported := []string{"metarates", "aging", "postmark", "kernel",
		"micro", "ior", "btio", "mixedstream", "syncpressure", "cachebench"}
	unported := map[string]bool{"failover": true, "defragbench": true, "crashsweep": true}
	fset := token.NewFileSet()
	named := map[string]bool{}
	for _, name := range append(ported, "apply", "failover", "defragbench", "crashsweep") {
		path := filepath.Join("internal", "workload", name+".go")
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if name == "apply" && methods[n.Sel.Name] {
					named[n.Sel.Name] = true
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && name != "apply" && methods[sel.Sel.Name] {
					calls++
					if !unported[name] {
						t.Errorf("%s: the %s driver calls %s; its op list should, through workload.Apply",
							fset.Position(n.Pos()), name, sel.Sel.Name)
					}
				}
			}
			return true
		})
		if unported[name] && calls == 0 {
			t.Errorf("%s no longer calls pfs itself: move it from the unported list to the ported one", path)
		}
	}
	for m := range methods {
		if !named[m] {
			t.Errorf("apply.go never names %s: the guard's method list has drifted from the interpreter", m)
		}
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
		"writeTargets": true, "members": true, "bookReplica": true,
		"steerRead": true, "down": true, "suspect": true, "forget": true,
		// object creation: placement and registration of the sets
		"createObjects": true,
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

// TestCacheIsAlwaysMounted keeps the cache's nil switch from growing back:
// every mount carries a cache, a pass-through at capacity 0, so no file in
// internal/pfs compares a cache field with nil and no code under cmd/ or
// internal/ compares what Cache() returned with nil. Within internal/pfs
// only inCache — which decides whether a cache call opens a span — reads
// the cache's capacity; every file operation is one body.
func TestCacheIsAlwaysMounted(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			inPfs := filepath.Dir(path) == filepath.Join("internal", "pfs")
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				checkCacheUse(t, fset, fn, inPfs)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkCacheUse reports fn's nil tests of a cache: of a .cache field when
// fn is in internal/pfs, and of a Cache() result — directly or through a
// variable assigned from it — anywhere. In internal/pfs it also reports a
// read of CapacityBlocks outside inCache.
func checkCacheUse(t *testing.T, fset *token.FileSet, fn *ast.FuncDecl, inPfs bool) {
	t.Helper()
	isCacheCall := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Cache"
	}
	fromCache := map[string]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if id, ok := as.Lhs[i].(*ast.Ident); ok && isCacheCall(rhs) {
					fromCache[id.Name] = true
				}
			}
		}
		return true
	})
	isCache := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			return inPfs && e.Sel.Name == "cache"
		case *ast.Ident:
			return fromCache[e.Name]
		}
		return isCacheCall(e)
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) &&
				(isCache(n.X) && isNil(n.Y) || isNil(n.X) && isCache(n.Y)) {
				t.Errorf("%s: %s tests whether a cache exists; every mount has one (capacity 0 is a pass-through)",
					fset.Position(n.Pos()), fn.Name.Name)
			}
		case *ast.SelectorExpr:
			if inPfs && n.Sel.Name == "CapacityBlocks" && fn.Name.Name != "inCache" {
				t.Errorf("%s: %s reads the cache's capacity; only inCache may ask whether blocks are cached",
					fset.Position(n.Pos()), fn.Name.Name)
			}
		}
		return true
	})
}

// TestRPCHasOneCallPath keeps the transport decorator stack and the message
// catalogue from growing back: in internal/rpc the only method named Call is
// Conn.Call — retry, blackholes, fault draws and the wire are one loop — no
// interface declares Call for a second implementation to slot in behind,
// and no type declares WireSize or RPCOp, the marks of a request/response
// message type. Every exported method of the two clients makes exactly one
// c.conn.Call, and touches c.srv only inside the function literal it passes
// there: the clients hold server pointers, and a server call outside that
// closure would skip the wire model.
func TestRPCHasOneCallPath(t *testing.T) {
	files, err := filepath.Glob("internal/rpc/*.go")
	if err != nil {
		t.Fatal(err)
	}
	messageMethods := map[string]bool{"WireSize": true, "RPCOp": true}
	clients := map[string]bool{"MDSClient": true, "OSTClient": true}
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
				if n.Recv == nil {
					return true
				}
				recv := recvName(n.Recv.List[0].Type)
				if n.Name.Name == "Call" && recv != "Conn" {
					t.Errorf("%s: %s.Call is a second call path; fold it into Conn.Call",
						fset.Position(n.Pos()), recv)
				}
				if messageMethods[n.Name.Name] {
					t.Errorf("%s: %s declares %s; a call is a client method, not a message type",
						fset.Position(n.Pos()), recv, n.Name.Name)
				}
				if clients[recv] && n.Name.IsExported() {
					checkClientMethod(t, fset, recv, n)
				}
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							if name.Name == "Call" || messageMethods[name.Name] {
								t.Errorf("%s: interface %s declares %s; Conn.Call is the only call path",
									fset.Position(n.Pos()), n.Name.Name, name.Name)
							}
						}
					}
				}
			}
			return true
		})
	}
}

// checkClientMethod requires one c.conn.Call in a client method, with every
// c.srv inside the function literal passed to it.
func checkClientMethod(t *testing.T, fset *token.FileSet, recv string, fn *ast.FuncDecl) {
	t.Helper()
	isSel := func(e ast.Expr, x, sel string) bool {
		s, ok := e.(*ast.SelectorExpr)
		if !ok || s.Sel.Name != sel {
			return false
		}
		id, ok := s.X.(*ast.Ident)
		return ok && id.Name == x
	}
	calls := 0
	var inside *ast.FuncLit // the closure passed to the one c.conn.Call
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if s, ok := call.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Call" && isSel(s.X, "c", "conn") {
			calls++
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					inside = lit
				}
			}
		}
		return true
	})
	if calls != 1 {
		t.Errorf("%s: %s.%s makes %d c.conn.Call calls, want exactly 1",
			fset.Position(fn.Pos()), recv, fn.Name.Name, calls)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil || n == inside {
			return false
		}
		if e, ok := n.(ast.Expr); ok && isSel(e, "c", "srv") {
			t.Errorf("%s: %s.%s uses c.srv outside the closure it passes to c.conn.Call",
				fset.Position(n.Pos()), recv, fn.Name.Name)
		}
		return true
	})
}

// TestRPCCatalogueIsSent keeps the RPC catalogue equal to what the mount
// sends: every exported method of the clients is called by
// non-test internal/pfs code on fs.mdsc or fs.ostc[…], and every method
// called there exists. A client method nothing sends is a wire model no
// experiment runs.
func TestRPCCatalogueIsSent(t *testing.T) {
	clients := map[string]string{"MDSClient": "mdsc", "OSTClient": "ostc"}
	declared := map[string]map[string]bool{"mdsc": {}, "ostc": {}}
	sent := map[string]map[string]bool{"mdsc": {}, "ostc": {}}
	fset := token.NewFileSet()
	parse := func(pattern string, visit func(*ast.File)) {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			visit(file)
		}
	}
	parse("internal/rpc/*.go", func(file *ast.File) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			if field, ok := clients[recvName(fn.Recv.List[0].Type)]; ok {
				declared[field][fn.Name.Name] = true
			}
		}
	})
	parse("internal/pfs/*.go", func(file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := method.X
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			if field, ok := recv.(*ast.SelectorExpr); ok && sent[field.Sel.Name] != nil {
				sent[field.Sel.Name][method.Sel.Name] = true
			}
			return true
		})
	})
	for client, field := range clients {
		for _, name := range sortedKeys(declared[field]) {
			if !sent[field][name] {
				t.Errorf("%s.%s is never sent by internal/pfs; delete it with its op", client, name)
			}
		}
		for _, name := range sortedKeys(sent[field]) {
			if !declared[field][name] {
				t.Errorf("internal/pfs calls fs.%s.%s, which %s does not declare", field, name, client)
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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

// TestEventDetailsFormatOnlyWhenObserved makes "untraced runs skip fmt
// entirely" a checked rule: under internal/, a call x.Emit(…) whose detail
// argument calls into fmt must sit in the body of an if whose condition
// tests x != nil. EventLog.Emit is nil-safe, so without the test the detail
// string is built and thrown away on every unobserved event — a million
// times a pass on the cached data path.
func TestEventDetailsFormatOnlyWhenObserved(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fmtName := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "fmt" {
				fmtName = "fmt"
				if imp.Name != nil {
					fmtName = imp.Name.Name
				}
			}
		}
		if fmtName == "" {
			return nil
		}
		callsFmt := func(e ast.Expr) bool {
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == fmtName {
							found = true
						}
					}
				}
				return !found
			})
			return found
		}
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 4 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Emit" || !callsFmt(call.Args[3]) {
				return true
			}
			log := types.ExprString(sel.X)
			for i := len(stack) - 2; i >= 0; i-- {
				if ifs, ok := stack[i].(*ast.IfStmt); ok && testsNotNil(ifs.Cond, log) &&
					ifs.Body.Pos() <= call.Pos() && call.End() <= ifs.Body.End() {
					return true
				}
			}
			t.Errorf("%s: %s.Emit formats its detail with fmt outside an `if %s != nil` test",
				fset.Position(call.Pos()), log, log)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testsNotNil reports whether cond, or one of its && conjuncts, is
// `expr != nil` for the expression printed as expr.
func testsNotNil(cond ast.Expr, expr string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return testsNotNil(c.X, expr)
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			return testsNotNil(c.X, expr) || testsNotNil(c.Y, expr)
		case token.NEQ:
			return types.ExprString(c.X) == expr && isNil(c.Y) || isNil(c.X) && types.ExprString(c.Y) == expr
		}
	}
	return false
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

// TestBenchModuleVets vets and tests bench/ — the benchmark BENCHMARK.json
// declares, a module of its own that `./...` from the root does not reach
// — so a signature change under internal/ that stops it compiling, or
// breaks what its tests check, fails tier-1.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on another module")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
