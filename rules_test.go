package repro

// TestRules checks the architecture rules that keep this reproduction
// small: one access path per Join Tree node, one query driver, one
// place that starts goroutines, one memory discipline, and the rest.
// Each rule is one case. It reads the module's parsed source (go/parser
// and go/ast, no type checking) and looks at imports, calls, go
// statements, struct fields, selectors and string literals, never at
// text, so neither reformatting a line nor renaming an argument can
// break a rule or slip past it. Each case carries a small violating
// snippet, overlaid on the module, that the case must flag.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// srcFile is one parsed Go file of the module.
type srcFile struct {
	path string // slash-separated, relative to the module root
	test bool   // a _test.go file
	ast  *ast.File
}

// under reports whether f lies in one of dirs or below it.
func (f *srcFile) under(dirs ...string) bool {
	return slices.ContainsFunc(dirs, func(d string) bool { return strings.HasPrefix(f.path, d+"/") })
}

// srcSet is the parsed source of the module, or of the module with a
// rule's violating snippet laid over it.
type srcSet struct {
	fset  *token.FileSet
	files []*srcFile
}

// loadModule parses every Go file of the module rooted at the working
// directory, test files included.
func loadModule(t testing.TB) *srcSet {
	t.Helper()
	s := &srcSet{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := s.parse(filepath.ToSlash(p), src)
		if err != nil {
			return err
		}
		s.files = append(s.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *srcSet) parse(p string, src []byte) (*srcFile, error) {
	f, err := parser.ParseFile(s.fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &srcFile{path: p, test: strings.HasSuffix(p, "_test.go"), ast: f}, nil
}

// with returns s with files laid over it: each replaces the file of its
// path, if there is one.
func (s *srcSet) with(t testing.TB, files map[string]string) *srcSet {
	t.Helper()
	out := &srcSet{fset: s.fset}
	for _, f := range s.files {
		if _, ok := files[f.path]; !ok {
			out.files = append(out.files, f)
		}
	}
	for p, src := range files {
		f, err := s.parse(p, []byte(src))
		if err != nil {
			t.Fatalf("snippet %s: %v", p, err)
		}
		out.files = append(out.files, f)
	}
	return out
}

// product returns the non-test files in dirs, or in the whole module
// when dirs is empty.
func (s *srcSet) product(dirs ...string) []*srcFile {
	var out []*srcFile
	for _, f := range s.files {
		if !f.test && (len(dirs) == 0 || f.under(dirs...)) {
			out = append(out, f)
		}
	}
	return out
}

// file returns the file at p, if the set has it.
func (s *srcSet) file(p string) []*srcFile {
	for _, f := range s.files {
		if f.path == p {
			return []*srcFile{f}
		}
	}
	return nil
}

// report collects a rule's violations, each "path:line: what".
type report struct {
	s   *srcSet
	out []string
}

func (r *report) at(p token.Pos, what string) {
	pos := r.s.fset.Position(p)
	r.out = append(r.out, pos.Filename+":"+strconv.Itoa(pos.Line)+": "+what)
}

// exactlyOne reports every site unless there is exactly one. sites maps
// a site's label to the first position it was seen at.
func (r *report) exactlyOne(sites map[string]token.Pos, what string) {
	if len(sites) == 0 {
		r.out = append(r.out, "module: no "+what)
	}
	if len(sites) > 1 {
		for label, p := range sites {
			r.at(p, "one of several "+what+" ("+label+")")
		}
	}
}

// inspect calls visit for every node of f, with the function
// declaration it lies in (nil outside one).
func inspect(f *srcFile, visit func(n ast.Node, fn *ast.FuncDecl)) {
	for _, d := range f.ast.Decls {
		fn, _ := d.(*ast.FuncDecl)
		ast.Inspect(d, func(n ast.Node) bool {
			if n != nil {
				visit(n, fn)
			}
			return true
		})
	}
}

// importName returns the name f refers to the package at importPath
// by, or "" if f does not import it.
func importName(f *srcFile, importPath string) string {
	for _, im := range f.ast.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == importPath {
			if im.Name != nil {
				return im.Name.Name
			}
			return path.Base(p)
		}
	}
	return ""
}

// pkgSel returns the name e selects from the package at importPath, or
// "" if e is no such selector.
func pkgSel(f *srcFile, e ast.Node, importPath string) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if x, ok := sel.X.(*ast.Ident); ok && x.Name == importName(f, importPath) {
		return sel.Sel.Name
	}
	return ""
}

// callee returns the name a call calls — a function's or a method's —
// or "" if n is not a call.
func callee(n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// methodCall returns n as a call of a selector — x.m(…) — or nils.
func methodCall(n ast.Node) (*ast.CallExpr, *ast.SelectorExpr) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	return call, sel
}

// funcName returns fn's name, with its receiver's type for a method:
// "Store.correct".
func funcName(fn *ast.FuncDecl) string {
	if fn == nil {
		return "(package level)"
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// isIdent reports whether n is the identifier name.
func isIdent(n ast.Node, name string) bool {
	id, ok := n.(*ast.Ident)
	return ok && id.Name == name
}

// stringLit returns the value of a string literal, and whether n is one.
func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}

// structs calls visit for every field of every struct type declared at
// the top level of files, with the type's name.
func structs(files []*srcFile, visit func(typeName string, field *ast.Field)) {
	for _, f := range files {
		for _, d := range f.ast.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, spec := range g.Specs {
				ts := spec.(*ast.TypeSpec)
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						visit(ts.Name.Name, field)
					}
				}
			}
		}
	}
}

// contains reports whether any node of the expression e satisfies pred.
func contains(e ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n != nil && pred(n) {
			found = true
		}
		return !found
	})
	return found
}

// sliceOf reports whether n is a slice type of the named element.
func sliceOf(n ast.Node, elem string) bool {
	a, ok := n.(*ast.ArrayType)
	return ok && a.Len == nil && isIdent(a.Elt, elem)
}

// optionsParam reports whether name is a parameter of fn of type
// QueryOptions or *QueryOptions.
func optionsParam(fn *ast.FuncDecl, name string) bool {
	if fn == nil {
		return false
	}
	for _, p := range fn.Type.Params.List {
		t := p.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if isIdent(t, "QueryOptions") && slices.ContainsFunc(p.Names, func(id *ast.Ident) bool { return id.Name == name }) {
			return true
		}
	}
	return false
}

// rule is one architecture rule: a check over the module's source and
// a violation the check must flag.
type rule struct {
	name  string
	check func(s *srcSet, r *report)
	bad   map[string]string // path -> source, laid over the module
}

var rules = []rule{{
	// The workload model builds a pair's reductions on the goroutine of
	// the observation that crosses the threshold, before it returns:
	// internal/workload starts no goroutine and waits on no WaitGroup,
	// and there is nothing to wait for.
	name: "ExtVP builds run on the query that earns them",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal/workload") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if _, ok := n.(*ast.GoStmt); ok {
					r.at(n.Pos(), "internal/workload starts a goroutine")
				}
				if pkgSel(f, n, "sync") == "WaitGroup" {
					r.at(n.Pos(), "internal/workload waits on a sync.WaitGroup")
				}
			})
		}
		for _, f := range s.files {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if _, sel := methodCall(n); sel != nil && sel.Sel.Name == "Wait" && callee(sel.X) == "Workload" {
					r.at(n.Pos(), "a caller waits on the workload model")
				}
			})
		}
	},
	bad: map[string]string{"internal/workload/bad.go": `package workload

import "sync"

// build runs a reduction on a goroutine of its own and waits for it.
func build(run func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { run(); wg.Done() }()
	wg.Wait()
}
`},
}, {
	// Loading is one streaming pass: the reader's byte spans go straight
	// into the dictionary. Neither the loader, the baselines that load
	// from it, the experiment harness nor a binary may parse the input
	// into an rdf.Graph first (ReadAll, ParseNTriples and rdf.Graph stay
	// for tests, the WatDiv generator and the benchmark probes).
	name: "The loader never materialises the document",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal/core", "internal/baselines", "internal/bench", "cmd") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				switch name := callee(n); {
				case name == "ReadAll" || name == "ParseNTriples":
					r.at(n.Pos(), "parses the whole document with "+name)
				case name == "NewGraph" && pkgSel(f, n.(*ast.CallExpr).Fun, "repro/internal/rdf") == "NewGraph":
					r.at(n.Pos(), "builds an rdf.Graph of the document")
				}
			})
		}
	},
	bad: map[string]string{"internal/core/bad.go": `package core

import (
	"io"

	"repro/internal/rdf"
)

// loadGraph parses the whole document into a graph before encoding it.
func loadGraph(r io.Reader) []rdf.Triple {
	triples, _ := rdf.ParseNTriples(r)
	return triples
}
`},
}, {
	// A load prices its VP and Property Table files with columnar.Sizer,
	// in closed form: nothing under internal/core, internal/baselines or
	// cmd/ encodes a column to measure it (EncodeIDs and RowChunk stay
	// for the benchmark probes and as the sizer's test reference), and
	// the columnar file format nothing read back must not return.
	name: "Load sizes files, it does not encode them",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal/core", "internal/baselines", "cmd") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if strings.HasPrefix(pkgSel(f, n, "repro/internal/columnar"), "Encode") {
					r.at(n.Pos(), "encodes columns to size its files")
				}
			})
		}
		for _, f := range s.files {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if name := pkgSel(f, n, "repro/internal/columnar"); name == "NewWriter" || name == "File" {
					r.at(n.Pos(), "uses the columnar file writer (columnar."+name+")")
				}
			})
			if !f.under("internal/columnar") {
				continue
			}
			for _, d := range f.ast.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "NewWriter" {
					r.at(fn.Pos(), "the columnar file writer is back (func NewWriter)")
				}
			}
			structs([]*srcFile{f}, func(typeName string, field *ast.Field) {
				if typeName == "File" {
					r.at(field.Pos(), "the columnar file writer is back (type File struct)")
				}
			})
		}
	},
	bad: map[string]string{"internal/core/bad.go": `package core

import (
	"repro/internal/columnar"
	"repro/internal/rdf"
)

// vpFileBytes encodes a column to learn its file's size.
func vpFileBytes(ids []rdf.ID) int {
	return len(columnar.EncodeIDs(ids))
}
`},
}, {
	// S2RDF, SPARQLGX and Rya load from PRoST's ingest (a loaded
	// core.Store) and write to its file system: none of them encodes
	// triples, collects statistics or creates an HDFS of its own. Every
	// FILTER, in PRoST and in all three baselines, is interpreted by one
	// operator switch (engine.FilterOp).
	name: "The baselines are configurations of one engine",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal/baselines") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				switch {
				case callee(n) == "EncodeTriple":
					r.at(n.Pos(), "a baseline encodes triples of its own")
				case pkgSel(f, n, "repro/internal/stats") == "Collect":
					r.at(n.Pos(), "a baseline collects statistics of its own")
				case isIdent(n, "CollectJoinStats"):
					r.at(n.Pos(), "a baseline collects join statistics of its own")
				case callee(n) == "New" && pkgSel(f, n.(*ast.CallExpr).Fun, "repro/internal/hdfs") == "New":
					r.at(n.Pos(), "a baseline creates a file system of its own")
				}
			})
		}
		switches := map[string]token.Pos{}
		for _, f := range s.product("internal") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if cc, ok := n.(*ast.CaseClause); ok && slices.ContainsFunc(cc.List, func(e ast.Expr) bool {
					return pkgSel(f, e, "repro/internal/sparql") == "OpGE"
				}) {
					if _, seen := switches[f.path]; !seen {
						switches[f.path] = n.Pos()
					}
				}
			})
		}
		r.exactlyOne(switches, "FILTER operator switch (case sparql.OpGE)")
	},
	bad: map[string]string{"internal/baselines/bad.go": `package baselines

import "repro/internal/sparql"

// keep interprets a FILTER with an operator switch of its own.
func keep(op sparql.Op, cmp int) bool {
	switch op {
	case sparql.OpGE:
		return cmp >= 0
	}
	return false
}
`},
}, {
	// rdf.Dictionary keeps term text in append-only byte pages, a
	// fixed-size record per ID and an open-addressed []uint32 index:
	// nothing the collector has to mark per term. A map keyed on terms,
	// a slice of terms or of strings must not come back as a field of
	// it.
	name: "The dictionary holds no pointer per term",
	check: func(s *srcSet, r *report) {
		structs(s.file("internal/rdf/dict.go"), func(typeName string, field *ast.Field) {
			if contains(field.Type, func(n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				return ok && isIdent(m.Key, "Term") || sliceOf(n, "Term") || sliceOf(n, "string")
			}) {
				r.at(field.Pos(), typeName+" declares a map[Term], []Term or []string field")
			}
		})
	},
	bad: map[string]string{"internal/rdf/dict.go": `package rdf

// Dictionary finds a term's ID through a map keyed on terms.
type Dictionary struct {
	ids map[Term]ID
}
`},
}, {
	// A relation partition, a stored VP table, a streaming batch and a
	// shard exchange are each an engine.Block: one flat []rdf.ID, with no
	// per-row slice header. [][]Row lives on only in the row-slice
	// adapters (internal/engine/compat.go) and the row-slice form of a
	// shard scan (core.Store.ScanNodeParts); nothing shares a row by its
	// header (the old RowArena.AppendRef), and engine.Relation holds no
	// []Row.
	name: "Rows without headers",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal") {
			if f.path == "internal/engine/compat.go" {
				continue
			}
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				if fn != nil && fn.Recv != nil && fn.Name.Name == "ScanNodeParts" {
					return
				}
				if a, ok := n.(*ast.ArrayType); ok && a.Len == nil {
					if inner, ok := a.Elt.(*ast.ArrayType); ok && inner.Len == nil &&
						(isIdent(inner.Elt, "Row") || pkgSel(f, inner.Elt, "repro/internal/engine") == "Row") {
						r.at(n.Pos(), "rows held as [][]Row")
					}
				}
				if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, "AppendRef") {
					r.at(n.Pos(), "a row shared by its header ("+id.Name+")")
				}
			})
		}
		structs(s.product("internal/engine"), func(typeName string, field *ast.Field) {
			if typeName == "Relation" && contains(field.Type, func(n ast.Node) bool { return sliceOf(n, "Row") }) {
				r.at(field.Pos(), "engine.Relation declares a []Row field")
			}
		})
	},
	bad: map[string]string{"internal/engine/bad.go": `package engine

// rowPartition holds a partition as a slice of row headers per part.
type rowPartition struct {
	parts [][]Row
}
`},
}, {
	// Memory that dies with a query or a shard request is carved from
	// the engine.Region that query or request owns; memory that outlives
	// both (stored tables, the baselines' runs, compat.go's row adapters)
	// is the heap, through a nil *Region. There is no third discipline:
	// no kernel scratch lent from call to call, no per-connection row
	// scratch on the shard server, no reuse-or-allocate helpers, and no
	// map behind GROUP BY (the group table indexes groups through the
	// engine's head table and chain).
	name: "One memory discipline",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if id, ok := n.(*ast.Ident); ok && (strings.Contains(id.Name, "KernelScratch") || strings.Contains(id.Name, "rowScratch")) {
					r.at(n.Pos(), "kernel or row scratch beside engine.Region ("+id.Name+")")
				}
				for _, helper := range []string{"scratch32", "scratchIDs", "emptied"} {
					if strings.HasSuffix(callee(n), helper) {
						r.at(n.Pos(), "a reuse-or-allocate helper beside engine.Region ("+callee(n)+")")
					}
				}
			})
		}
		for _, f := range s.file("internal/engine/extended.go") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if m, ok := n.(*ast.MapType); ok && isIdent(m.Key, "string") {
					r.at(n.Pos(), "internal/engine/extended.go indexes through a map")
				}
			})
		}
	},
	bad: map[string]string{"internal/engine/bad.go": `package engine

// KernelScratch is memory a kernel lends itself from call to call.
type KernelScratch struct {
	ids []uint32
}
`},
}, {
	// Responses are appended by internal/serve/encode.go; a map of
	// bindings per row or anything built on reflection must not come back
	// into non-test code (the old renderings live on in server_test.go
	// as the reference).
	name: "No per-row marshaling in the serve layer",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal/serve") {
			if importName(f, "reflect") != "" {
				r.at(f.ast.Package, "internal/serve imports reflect")
			}
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if m, ok := n.(*ast.MapType); ok && isIdent(m.Key, "string") && isIdent(m.Value, "binding") {
					r.at(n.Pos(), "a map of bindings per row")
				}
			})
		}
	},
	bad: map[string]string{"internal/serve/bad.go": `package serve

import "reflect"

// fields walks a row's bindings by reflection.
func fields(row any) int { return reflect.ValueOf(row).NumField() }
`},
}, {
	// A node is resolved into its NodeScan once (core.resolveScan); the
	// scheduler, the pipelines, the coordinator and the shard server
	// only iterate it. The table pick, the predicate fusing and the
	// inverse-PT check must not be written out per route again: each has
	// one calling function, the error one site.
	name: "One access path per Join Tree node",
	check: func(s *srcSet, r *report) {
		core := s.product("internal/core")
		for _, pick := range []string{"vpScanPred", "ptNodeScan", "extvpTable"} {
			callers := map[string]token.Pos{}
			for _, f := range core {
				inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
					if callee(n) == pick {
						if _, seen := callers[funcName(fn)]; !seen {
							callers[funcName(fn)] = n.Pos()
						}
					}
				})
			}
			r.exactlyOne(callers, "function of internal/core calling "+pick)
		}
		sites := map[string]token.Pos{}
		for _, f := range core {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if v, ok := stringLit(n); ok && strings.Contains(v, "inverse property table not loaded") {
					sites[s.fset.Position(n.Pos()).String()] = n.Pos()
				}
			})
		}
		r.exactlyOne(sites, "inverse-PT check ('inverse property table not loaded')")
	},
	bad: map[string]string{"internal/core/bad.go": `package core

// scanByHand picks a node's VP table on a route of its own.
func (s *Store) scanByHand(n *Node) {
	s.vpScanPred(n)
}
`},
}, {
	// Store.QueryContext is resolve -> plan -> execute -> assemble, each
	// written once. Options are resolved by Store.resolve and never
	// rewritten in flight (store.go's load options aside); there is one
	// Result literal, one place the broadcast default is applied and one
	// translate -> order -> build sequence.
	name: "One query driver",
	check: func(s *srcSet, r *report) {
		core := s.product("internal/core")
		for _, f := range core {
			if f.path == "internal/core/store.go" {
				continue
			}
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						lhs = n.Lhs
					}
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				}
				for _, e := range lhs {
					if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.IsExported() {
						if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "opts" || optionsParam(fn, x.Name)) {
							r.at(e.Pos(), "assigns to a field of its caller's QueryOptions ("+x.Name+"."+sel.Sel.Name+"); resolve it in Store.resolve")
						}
					}
				}
			})
		}
		results := map[string]token.Pos{}
		uses := map[string]map[string]token.Pos{"engine.DefaultBroadcastThreshold": {}, "naiveOrder": {}}
		for _, f := range core {
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				if lit, ok := n.(*ast.CompositeLit); ok && isIdent(lit.Type, "Result") {
					results[s.fset.Position(n.Pos()).String()] = n.Pos()
				}
				use := ""
				if pkgSel(f, n, "repro/internal/engine") == "DefaultBroadcastThreshold" {
					use = "engine.DefaultBroadcastThreshold"
				}
				if callee(n) == "naiveOrder" {
					use = "naiveOrder"
				}
				if use != "" {
					if _, seen := uses[use][funcName(fn)]; !seen {
						uses[use][funcName(fn)] = n.Pos()
					}
				}
			})
		}
		r.exactlyOne(results, "Result literal in internal/core")
		for use, users := range uses {
			r.exactlyOne(users, "function of internal/core using "+use)
		}
	},
	bad: map[string]string{"internal/core/bad.go": `package core

// streamAll rewrites its caller's options in flight.
func streamAll(o *QueryOptions) {
	o.Streaming = true
}
`},
}, {
	// Correction happens between executions: a badly mis-estimated
	// execution re-plans its own cache entry (core.Store.correct).
	// Nothing pauses, splices or grafts a running plan, the planner has
	// no Bound leaves and no runtime-rule pricing, and no binary takes a
	// re-plan bound. Store.correct is the one function that writes a
	// corrected plan-cache entry.
	name: "Plans run to completion",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product() {
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				if id, ok := n.(*ast.Ident); ok {
					for _, gone := range []string{"OpBound", "pauseAt", "RuntimeRules"} {
						if strings.Contains(id.Name, gone) {
							r.at(n.Pos(), "mid-query re-planning is back ("+id.Name+")")
						}
					}
					if strings.HasSuffix(id.Name, "Replan") && fn != nil && fn.Name == id {
						r.at(n.Pos(), "mid-query re-planning is back (func "+id.Name+")")
					}
				}
				if strings.HasSuffix(callee(n), "Replan") {
					r.at(n.Pos(), "mid-query re-planning is back ("+callee(n)+")")
				}
				if v, ok := stringLit(n); ok && strings.Contains(v, "replan-threshold") {
					r.at(n.Pos(), "a binary takes a re-plan bound")
				}
			})
		}
		writers := map[string]token.Pos{}
		for _, f := range s.product("internal") {
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				call, put := methodCall(n)
				if put == nil || put.Sel.Name != "put" {
					return
				}
				x := put.X
				if sel, ok := x.(*ast.SelectorExpr); ok {
					x = sel.Sel
				}
				if !isIdent(x, "planCache") || !slices.ContainsFunc(call.Args, func(a ast.Expr) bool {
					return contains(a, func(n ast.Node) bool {
						kv, ok := n.(*ast.KeyValueExpr)
						return ok && isIdent(kv.Key, "corrected") && isIdent(kv.Value, "true")
					})
				}) {
					return
				}
				writers[path.Dir(f.path)+"."+funcName(fn)] = n.Pos()
			})
		}
		if _, ok := writers["internal/core.Store.correct"]; !ok || len(writers) != 1 {
			r.out = append(r.out, "module: a corrected plan-cache entry must be written by Store.correct alone")
			for w, p := range writers {
				r.at(p, "writes a corrected plan-cache entry ("+w+")")
			}
		}
	},
	bad: map[string]string{"internal/core/bad.go": `package core

// graft splices a corrected plan into the running query's entry.
func (s *Store) graft(key string, e *cachedPlan) {
	s.planCache.put(key, &cachedPlan{plan: e.plan, corrected: true})
}
`},
}, {
	// The circuit breaker's window, threshold, sample floor and
	// cooldown, the plan-cache bound, the pair-sketch bound, the
	// streaming chunk size, the salting trigger, the stage width and the
	// width of a query's operators and scans (GOMAXPROCS) are constants:
	// no exported field, flag or request parameter sets them.
	// internal/stats keeps its own Config.SketchTopK.
	name: "Settings with one value in use stay constants",
	check: func(s *srcSet, r *report) {
		settings := []string{"MaxParallel", "Parallelism", "SkewSaltFraction", "PlanCacheSize", "SketchTopK",
			"BreakerWindow", "BreakerThreshold", "BreakerMinSamples", "BreakerCooldown", "ChunkSize"}
		params := []string{"chunk-size", "parallelism", "plan-cache", "stats-sketches"}
		for _, f := range s.product() {
			if f.under("internal/stats", "benchmark") {
				continue
			}
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if id, ok := n.(*ast.Ident); ok && slices.Contains(settings, id.Name) {
					r.at(n.Pos(), "a setting with one value in use is settable ("+id.Name+")")
				}
				if v, ok := stringLit(n); ok && (slices.Contains(params, v) || strings.HasPrefix(v, "breaker-")) {
					r.at(n.Pos(), "a setting with one value in use is a flag or parameter ("+strconv.Quote(v)+")")
				}
				if strings.HasSuffix(callee(n), "StatsSketches") {
					r.at(n.Pos(), "a setting with one value in use is settable ("+callee(n)+")")
				}
				if callee(n) == "Has" {
					if args := n.(*ast.CallExpr).Args; len(args) == 1 {
						if v, ok := stringLit(args[0]); ok && v == "chunk" {
							r.at(n.Pos(), "a request parameter sets the streaming chunk size")
						}
					}
				}
			})
		}
	},
	bad: map[string]string{"cmd/bad/main.go": `package main

import "flag"

// A flag sets the width of a query's operators.
var width = flag.Int("parallelism", 0, "operator width")

func main() { flag.Parse() }
`},
}, {
	// A load collects its statistics while it builds its tables, both
	// reading the triples and the dictionary; that is race-free only
	// while no table build reads the statistics. Nothing an internal/core
	// function reachable from buildVP or buildPropertyTable calls, by
	// name, selects a .stats field.
	name: "Table builds read no statistics",
	check: func(s *srcSet, r *report) {
		decls := map[string][]*ast.FuncDecl{}
		for _, f := range s.product("internal/core") {
			for _, d := range f.ast.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					decls[fn.Name.Name] = append(decls[fn.Name.Name], fn)
				}
			}
		}
		seen := map[*ast.FuncDecl]bool{}
		var visit func(fn *ast.FuncDecl)
		visit = func(fn *ast.FuncDecl) {
			if seen[fn] {
				return
			}
			seen[fn] = true
			ast.Inspect(fn, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "stats" {
					r.at(sel.Pos(), funcName(fn)+", which a table build calls, reads the statistics (.stats) the load collects beside it")
				}
				for _, d := range decls[callee(n)] {
					visit(d)
				}
				return true
			})
		}
		for _, root := range []string{"buildVP", "buildPropertyTable"} {
			if len(decls[root]) == 0 {
				r.out = append(r.out, "module: no "+root+" in internal/core")
			}
			for _, d := range decls[root] {
				visit(d)
			}
		}
	},
	bad: map[string]string{"internal/core/bad.go": `package core

import "repro/internal/rdf"

// buildPropertyTable orders its columns by the statistics.
func buildPropertyTable(s *Store) []rdf.ID { return columnOrder(s) }

func columnOrder(s *Store) []rdf.ID {
	var out []rdf.ID
	for p := range s.stats.ByPredicate {
		out = append(out, p)
	}
	return out
}
`},
}, {
	// Every parallel task in the process runs through cluster.Run: a
	// stage's partitions, a streaming scan's, the scheduler's operators,
	// a coordinator's per-shard calls, the loader's and the result
	// decoder's splits. Its helper start is the one go statement in
	// non-test internal/ code besides the shard server's accept loop,
	// whose connections live as long as they are open. internal/bench
	// boots loopback shards of its own, and internal/testenv, which only
	// tests import, parks goroutines for the allocation harness.
	name: "One place starts goroutines",
	check: func(s *srcSet, r *report) {
		want := []string{"internal/cluster/run.go: Run", "internal/shard/server.go: Serve"}
		seen := map[string]bool{}
		for _, f := range s.product("internal") {
			if f.under("internal/bench", "internal/testenv") {
				continue
			}
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				if _, ok := n.(*ast.GoStmt); !ok {
					return
				}
				site := f.path + ": " + fn.Name.Name
				seen[site] = true
				if !slices.Contains(want, site) {
					r.at(n.Pos(), "a go statement outside cluster.Run and the shard server's accept loop; run the work through cluster.Run")
				}
			})
		}
		for _, site := range want {
			if !seen[site] {
				r.out = append(r.out, "module: no go statement in "+site)
			}
		}
	},
	bad: map[string]string{"internal/core/bad.go": `package core

// decodeAll decodes each split on a goroutine of its own.
func decodeAll(splits [][]byte, decode func([]byte)) {
	for _, split := range splits {
		go decode(split)
	}
}
`},
}, {
	// A result row decodes with rdf.Snapshot.DecodeInto, each term
	// written where it lies; only a COUNT column goes through decodeCell
	// (from decodeRow). The baselines decode the same way, not a Term
	// copied out per cell.
	name: "Results decode in place and on the workers",
	check: func(s *srcSet, r *report) {
		calls := map[string]token.Pos{}
		for _, f := range s.product("internal/core") {
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				if callee(n) != "decodeCell" {
					return
				}
				calls[s.fset.Position(n.Pos()).String()] = n.Pos()
				if args := n.(*ast.CallExpr).Args; funcName(fn) != "decodeRow" || len(args) < 3 || !isIdent(args[2], "true") {
					r.at(n.Pos(), "decodeCell must be called only for COUNT columns (decodeRow, isCount true)")
				}
			})
		}
		r.exactlyOne(calls, "call of decodeCell in internal/core")
		for _, f := range s.file("internal/baselines/baselines.go") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if _, sel := methodCall(n); sel != nil && sel.Sel.Name == "Term" {
					r.at(n.Pos(), "a baseline copies a Term out per cell; decode rows with Snapshot.DecodeInto")
				}
			})
		}
	},
	bad: map[string]string{"internal/baselines/baselines.go": `package baselines

import "repro/internal/rdf"

// decodeRow copies a Term out of the dictionary per cell.
func decodeRow(terms rdf.Snapshot, row []rdf.ID, out []rdf.Term) {
	for j, id := range row {
		out[j] = terms.Term(id)
	}
}
`},
}, {
	// /sparql and /explain run Store.QueryIDs: the rows come back as IDs
	// copied out of the query's region, and writeResult decodes them
	// once into the pooled encoder's core.DisplayRows, sorted there for
	// display. A per-request []rdf.Term result (QueryContext, a
	// Result's .Rows) or a sorted copy of one (SortedRows) must not come
	// back into non-test serve code.
	name: "Serve encodes from ID rows",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal/serve") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if name := callee(n); name == "QueryContext" || name == "SortedRows" {
					r.at(n.Pos(), "internal/serve builds its response from decoded rows ("+name+"); use QueryIDs and core.DisplayRows")
				}
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Rows" {
					r.at(n.Pos(), "internal/serve reads a Result's decoded rows (.Rows); use QueryIDs and core.DisplayRows")
				}
			})
		}
	},
	bad: map[string]string{"internal/serve/bad.go": `package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/sparql"
)

// answer decodes the whole result into terms before encoding it.
func answer(s *core.Store, q *sparql.Query) int {
	res, _ := s.QueryContext(context.Background(), q, core.QueryOptions{})
	return len(res.Rows)
}
`},
}, {
	// The streaming PT source emits as it intersects; a counting pass
	// ahead of it (ptScan.run with a nil yield) repeated the whole sorted
	// intersection of every partition.
	name: "One pass per PT partition",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product("internal/core") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if callee(n) == "run" {
					if args := n.(*ast.CallExpr).Args; len(args) == 2 && isIdent(args[1], "nil") {
						r.at(n.Pos(), "a counting pass over a PT partition (run with a nil yield)")
					}
				}
			})
		}
	},
	bad: map[string]string{"internal/core/bad.go": `package core

// countRows counts a partition's rows before the source emits them.
func countRows(sc *ptScan, pred func() bool) {
	sc.run(pred, nil)
}
`},
}, {
	// Every scan fans out over min(GOMAXPROCS, partitions) workers: no
	// size threshold decides it. Barrier steps keep a part per worker, so
	// the distinct set's is the one step lock left.
	name: "One fan-out rule, no shared barrier lock",
	check: func(s *srcSet, r *report) {
		locks := map[string]token.Pos{}
		for _, f := range s.file("internal/core/stream.go") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if id, ok := n.(*ast.Ident); ok && (strings.Contains(id.Name, "workerMorsels") || strings.Contains(id.Name, "scanWorkers")) {
					r.at(n.Pos(), "scan fan-out gated on size ("+id.Name+")")
				}
				if _, lock := methodCall(n); lock != nil && lock.Sel.Name == "Lock" {
					if mu, ok := lock.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
						locks[s.fset.Position(n.Pos()).String()] = n.Pos()
					}
				}
			})
		}
		if len(locks) > 1 {
			for _, p := range locks {
				r.at(p, "a step other than distinct locks (one of several mu.Lock calls)")
			}
		}
	},
	bad: map[string]string{"internal/core/stream.go": `package core

// Two barrier steps share a lock each.
func (st *distinctStep) add()  { st.mu.Lock(); st.mu.Unlock() }
func (st *topKStep) add()      { st.mu.Lock(); st.mu.Unlock() }
`},
}, {
	// Rows cross pipeline breakers by reference, so the chunk codec must
	// not come back into stream.go.
	name: "No chunk codec on the streaming path",
	check: func(s *srcSet, r *report) {
		for _, f := range s.file("internal/core/stream.go") {
			if importName(f, "repro/internal/columnar") != "" {
				r.at(f.ast.Package, "internal/core/stream.go imports internal/columnar")
			}
		}
	},
	bad: map[string]string{"internal/core/stream.go": `package core

// Rows cross a pipeline breaker encoded as column chunks.
import "repro/internal/columnar"

var _ = columnar.EncodeIDs
`},
}, {
	// The shard protocol is hand-rolled; a gob import creeping back into
	// non-test code would bring its per-message type descriptors and
	// double copies with it.
	name: "No gob outside tests",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product() {
			if importName(f, "encoding/gob") != "" {
				r.at(f.ast.Package, "encoding/gob imported outside _test.go files")
			}
		}
	},
	bad: map[string]string{"internal/shard/bad.go": `package shard

// Requests go over the wire as gob.
import "encoding/gob"

var _ = gob.NewEncoder
`},
}, {
	// The server validates a request whole and then decodes, runs and
	// encodes one owned partition at a time; the decoders that
	// materialize a whole part set (the coordinator's, and the
	// all-partitions scan wrapper) must not come back into it.
	name: "One partition at a time on the shard server",
	check: func(s *srcSet, r *report) {
		for _, f := range s.file("internal/shard/server.go") {
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if _, sel := methodCall(n); sel != nil && slices.Contains([]string{"partSet", "scanResp", "ScanNodeParts"}, sel.Sel.Name) {
					r.at(n.Pos(), "internal/shard/server.go decodes or scans a whole message at once ("+sel.Sel.Name+")")
				}
			})
		}
	},
	bad: map[string]string{"internal/shard/server.go": `package shard

// scanAll scans every owned partition before encoding any.
func (c *conn) scanAll(req *scanReq) {
	c.store.ScanNodeParts(req.node, req.filters, c.owned)
}
`},
}, {
	// Both executors price recovery through one attempt loop
	// (cluster.FaultPlan.RunAttempts) into one record
	// (cluster.Recovery). Faults are priced, never re-executed: no
	// relation checksum, no attempt callback, and one place to set a
	// fault plan (QueryOptions.Faults, not cluster.Config).
	name: "One attempt loop, one recovery record",
	check: func(s *srcSet, r *report) {
		internal := s.product("internal")
		callers, decls := map[string]token.Pos{}, map[string]token.Pos{}
		for _, f := range internal {
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				if _, sel := methodCall(n); sel != nil && sel.Sel.Name == "Decide" {
					callers[path.Dir(f.path)+"."+funcName(fn)] = n.Pos()
				}
				if callee(n) == "RunAttempts" && slices.ContainsFunc(n.(*ast.CallExpr).Args, func(a ast.Expr) bool { _, ok := a.(*ast.FuncLit); return ok }) {
					r.at(n.Pos(), "RunAttempts takes the attempt's priced time, not a callback that executes it")
				}
				if fn != nil && n == fn && fn.Name.Name == "RunAttempts" && contains(fn.Type.Params, func(n ast.Node) bool { _, ok := n.(*ast.FuncType); return ok }) {
					r.at(n.Pos(), "RunAttempts takes the attempt's priced time, not a callback that executes it")
				}
				if fn != nil && n == fn && fn.Name.Name == "Checksum" && strings.HasPrefix(funcName(fn), "Relation.") {
					r.at(n.Pos(), "faults are priced: no relation checksum is computed")
				}
			})
		}
		structs(internal, func(typeName string, field *ast.Field) {
			for _, name := range field.Names {
				if name.Name == "SpeculativeWins" {
					decls[s.fset.Position(name.Pos()).String()] = name.Pos()
				}
			}
		})
		structs(s.product("internal/cluster"), func(typeName string, field *ast.Field) {
			if typeName == "Config" && slices.ContainsFunc(field.Names, func(id *ast.Ident) bool { return id.Name == "Faults" }) {
				r.at(field.Pos(), "QueryOptions.Faults is the one way to set a fault plan; cluster.Config has no Faults field")
			}
		})
		r.exactlyOne(callers, "function calling FaultPlan.Decide (the shared attempt loop)")
		r.exactlyOne(decls, "declaration of the recovery counters (cluster.Recovery's SpeculativeWins)")
	},
	bad: map[string]string{"internal/core/bad.go": `package core

import "repro/internal/cluster"

// attempt decides a task's fault outside the shared attempt loop.
func attempt(fp *cluster.FaultPlan) cluster.FaultDecision {
	return fp.Decide(1, 1)
}
`},
}, {
	// A fault knob no binary can set is a second fault model only tests
	// reach: every field of cluster.FaultPlan is bound by a -fault-* flag,
	// an fs.*Var(&fp.<Field>, …) call on a FaultPlan the cliflag package
	// builds.
	name: "Fault knobs are the binaries' flags",
	check: func(s *srcSet, r *report) {
		bound := map[string]bool{}
		for _, f := range s.product("cmd/internal/cliflag") {
			plans := map[string]bool{} // "func.var" of every FaultPlan built
			inspect(f, func(n ast.Node, fn *ast.FuncDecl) {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
					for i, rhs := range as.Rhs {
						if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
							rhs = u.X
						}
						if lit, ok := rhs.(*ast.CompositeLit); ok && pkgSel(f, lit.Type, "repro/internal/cluster") == "FaultPlan" {
							if id, ok := as.Lhs[i].(*ast.Ident); ok {
								plans[funcName(fn)+"."+id.Name] = true
							}
						}
					}
				}
				call, sel := methodCall(n)
				if sel == nil || !strings.HasSuffix(sel.Sel.Name, "Var") || len(call.Args) == 0 {
					return
				}
				if u, ok := call.Args[0].(*ast.UnaryExpr); ok && u.Op == token.AND {
					if fsel, ok := u.X.(*ast.SelectorExpr); ok {
						if id, ok := fsel.X.(*ast.Ident); ok && plans[funcName(fn)+"."+id.Name] {
							bound[fsel.Sel.Name] = true
						}
					}
				}
			})
		}
		found := false
		structs(s.product("internal/cluster"), func(typeName string, field *ast.Field) {
			if typeName != "FaultPlan" {
				return
			}
			found = true
			for _, name := range field.Names {
				if !bound[name.Name] {
					r.at(name.Pos(), "FaultPlan."+name.Name+" is bound by no -fault-* flag in cmd/internal/cliflag")
				}
			}
		})
		if !found {
			r.out = append(r.out, "module: no cluster.FaultPlan")
		}
	},
	bad: map[string]string{"internal/cluster/fault.go": `package cluster

// FaultPlan has a knob no binary can set.
type FaultPlan struct {
	Seed            uint64
	FailRate        float64
	StragglerRate   float64
	StragglerFactor float64
	CorruptRate     float64
	MaxAttempts     int
}
`},
}, {
	// An allocation pin asserts how much a path allocates. Under the
	// race detector sync.Pool drops part of what is put back, so a pin
	// would measure the detector's pools: every pin counts through
	// internal/testenv, whose harnesses skip it there.
	name: "Allocation pins count through testenv",
	check: func(s *srcSet, r *report) {
		for _, f := range s.files {
			if f.under("internal/testenv") {
				continue
			}
			inspect(f, func(n ast.Node, _ *ast.FuncDecl) {
				if pkgSel(f, n, "testing") == "AllocsPerRun" {
					r.at(n.Pos(), "testing.AllocsPerRun outside internal/testenv; count with testenv.AllocsPerRun, which skips under -race")
				}
			})
		}
	},
	bad: map[string]string{"internal/core/bad_test.go": `package core

import "testing"

// A pin that counts without skipping under the race detector.
func TestPinWithoutSkip(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() {}); n != 0 {
		t.Errorf("%v allocations", n)
	}
}
`},
}, {
	// internal/testenv is linked into no binary: it imports testing and
	// parks goroutines, which only a test may do.
	name: "Only tests import testenv",
	check: func(s *srcSet, r *report) {
		for _, f := range s.product() {
			if !f.under("internal/testenv") && importName(f, "repro/internal/testenv") != "" {
				r.at(f.ast.Package, "a non-test file imports internal/testenv")
			}
		}
	},
	bad: map[string]string{"internal/core/bad.go": `package core

// A product file reaches for a test helper.
import "repro/internal/testenv"

var _ = testenv.Race
`},
}, {
	// "Small" counts what the product runs: an exported name declared in
	// non-test internal/ code needs a reference, by name, from non-test
	// code somewhere in the module (benchmark/ counts until its probes
	// move to the product's entry points). internal/bench is the
	// product's figure harness and internal/testenv a test helper. What
	// only tests call is on unreferencedAllowed, each with its reason;
	// an entry that gained a reference or lost its declaration goes.
	name: "Exported names have a product caller",
	check: func(s *srcSet, r *report) {
		flagged := unreferencedExported(s)
		for name, p := range flagged {
			if _, ok := unreferencedAllowed[name]; !ok {
				r.at(p, name+" has no reference from non-test code; delete it, or move what tests check to what the product calls")
			}
		}
		for name := range unreferencedAllowed {
			if _, ok := flagged[name]; !ok {
				r.out = append(r.out, "module: "+name+" is referenced from non-test code, or no longer declared; drop it from unreferencedAllowed")
			}
		}
	},
	bad: map[string]string{"internal/engine/bad.go": `package engine

// CartesianOfThree is a kernel only a test calls.
func CartesianOfThree(a, b, c Block) Block { return a }
`},
}}

// unreferencedAllowed names the exported declarations of internal/ that
// no non-test code references, each with why it stays.
var unreferencedAllowed = map[string]string{
	"cluster.HelpersStarted":      "test hook: tests wait until every helper a Run started has its run",
	"cluster.Tasks.Claims":        "test hook: tests read how many claims a Run's tasks saw",
	"cluster.Recovery.Recovered":  "test predicate: fault-free runs assert their record shows no fault activity",
	"engine.PoisonReleased":       "test hook: poisons released region slabs so a use after release fails",
	"engine.LessRowsID":           "reference order: tests sort expected rows by the engine's raw-ID order",
	"engine.NewRelation":          "compat.go row-slice constructor: tests and the testing.B benchmarks build relations from literal rows",
	"engine.Partition":            "compat.go row-slice constructor: tests and the join benchmarks hash-partition literal rows",
	"columnar.RowChunk.Column":    "rowchunk.go stays for the benchmark probes; its test reads a column's encoding through it",
	"rdf.ParseNTriples":           "reference parser: the streaming reader's tests and fuzz target compare against the whole-document parse",
	"rdf.Triple.Valid":            "reference predicate: the parser fuzz target and the WatDiv generator test hold their triples to it",
	"rdf.XSDString":               "RDF vocabulary beside XSDInteger: tests build xsd:string literals with it",
	"s2rdf.Store.ExtVPTableCount": "frozen figure: the frozen-profile test pins how many ExtVP tables S2RDF materializes",
	"serve.Server.ServeHTTP":      "implements http.Handler: net/http calls it, never by name",
	"sparql.MustParse":            "test hook: tests parse fixed query text without an error path",
	"watdiv.MustGenerate":         "test hook: tests generate fixed datasets without an error path",
}

// unreferencedExported returns the exported functions, methods, types,
// variables and constants declared at the top level of non-test
// internal/ code (internal/bench and internal/testenv aside) whose name
// no non-test code of the module references, keyed "pkg.Name" or
// "pkg.Type.Method". A reference inside the declaration itself, or as a
// method's receiver type, does not count.
func unreferencedExported(s *srcSet) map[string]token.Pos {
	type decl struct {
		key      string
		pos      token.Pos
		from, to token.Pos // the declaration's own extent
	}
	var decls []decl
	for _, f := range s.product("internal") {
		if f.under("internal/bench", "internal/testenv") {
			continue
		}
		pkg := path.Base(path.Dir(f.path))
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					decls = append(decls, decl{pkg + "." + funcName(d), d.Name.Pos(), d.Pos(), d.End()})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							decls = append(decls, decl{pkg + "." + spec.Name.Name, spec.Name.Pos(), spec.Pos(), spec.End()})
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() {
								decls = append(decls, decl{pkg + "." + name.Name, name.Pos(), name.Pos(), name.End()})
							}
						}
					}
				}
			}
		}
	}
	// refs holds, per name, where non-test code mentions it, receiver
	// types aside; internal/testenv is test code.
	refs := map[string][]token.Pos{}
	for _, f := range s.product() {
		if f.under("internal/testenv") {
			continue
		}
		for _, d := range f.ast.Decls {
			var recv ast.Node
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
				recv = fn.Recv
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if recv != nil && n == recv {
					return false
				}
				if id, ok := n.(*ast.Ident); ok && id.IsExported() {
					refs[id.Name] = append(refs[id.Name], id.Pos())
				}
				return true
			})
		}
	}
	out := map[string]token.Pos{}
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if !slices.ContainsFunc(refs[name], func(p token.Pos) bool { return p < d.from || p >= d.to }) {
			out[d.key] = d.pos
		}
	}
	return out
}

func TestRules(t *testing.T) {
	s := loadModule(t)
	for _, rl := range rules {
		t.Run(rl.name, func(t *testing.T) {
			r := &report{s: s}
			rl.check(s, r)
			sort.Strings(r.out)
			for _, v := range r.out {
				t.Error(v)
			}
			bad := &report{s: s}
			rl.check(s.with(t, rl.bad), bad)
			if !slices.ContainsFunc(bad.out, func(v string) bool {
				for p := range rl.bad {
					if strings.HasPrefix(v, p+":") {
						return true
					}
				}
				return false
			}) {
				t.Errorf("the rule does not flag its violating snippet; it reports %q", bad.out)
			}
		})
	}
}
