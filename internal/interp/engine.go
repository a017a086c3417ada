// Package interp is a tree-walking XQuery interpreter. In the
// reproduction it plays the role of Saxon in the paper's experiments
// (§4, §5): an XQuery engine with no function cache, whose latency is
// dominated by per-query compile and tree-build time, wrapped by the
// XRPC wrapper to participate in distributed queries.
//
// It is also the reference semantics for the loop-lifting relational
// engine (internal/pathfinder): both must produce identical results on
// the supported subset.
package interp

import (
	"fmt"
	"time"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// DocResolver resolves fn:doc URIs to document nodes. Implementations
// include store.Store (latest state), store.Snapshot (repeatable read)
// and client-side resolvers that fetch xrpc:// documents (data shipping).
type DocResolver interface {
	Doc(uri string) (*xdm.Node, error)
}

// ModuleResolver resolves "import module" URIs (with their at-hints) to
// parsed library modules.
type ModuleResolver interface {
	ResolveModule(uri string, atHints []string) (*xq.Module, error)
}

// CallRequest describes one remote function application for execute at.
type CallRequest struct {
	ModuleURI string
	AtHint    string
	Func      string // local function name
	Arity     int
	Args      []xdm.Sequence
	Updating  bool
	// ByFragment requests call-by-fragment parameter passing (nodeid
	// references for descendant parameters).
	ByFragment bool
}

// RPCCaller performs execute-at calls; implemented by the XRPC client.
// The interpreter performs one call per invocation (one-at-a-time RPC);
// bulk RPC arises from the loop-lifting engine.
type RPCCaller interface {
	Call(dest string, req *CallRequest) (xdm.Sequence, error)
}

// Stats records the three latency phases reported in Table 3 of the
// paper (Saxon latency: compile, treebuild, exec).
type Stats struct {
	Compile   time.Duration
	TreeBuild time.Duration
	Exec      time.Duration
	// Hash counts the §4 hash paths the exec phase took.
	Hash HashCounts
}

// HashCounts counts the §4 hash paths one evaluation took instead of a
// nested loop.
type HashCounts struct {
	// FLWORJoins counts value joins (`for $a in A, $b in B where ka =
	// kb`) evaluated on the hash path: by hashing their keys, or with
	// no pair formed at all because A or B is empty.
	FLWORJoins int
	// PredIndex counts predicates answered from a hash index over their
	// candidates.
	PredIndex int
}

// Total is the sum of the phases.
func (s Stats) Total() time.Duration { return s.Compile + s.TreeBuild + s.Exec }

// ExtFunc is a host-provided extension function, looked up by its
// prefixed name when no user or built-in function matches. The XRPC
// wrapper uses this to supply the n2s/s2n marshaling functions of §2.2
// (which "do not need to exist in reality, as each XRPC system
// implementation may have its own internal mechanisms").
type ExtFunc func(args []xdm.Sequence) (xdm.Sequence, error)

// Engine evaluates XQuery against a document store.
type Engine struct {
	Docs    DocResolver
	Modules ModuleResolver
	RPC     RPCCaller
	// ExtFuncs maps prefixed names (e.g. "xrpcw:n2s") to host functions.
	ExtFuncs map[string]ExtFunc
	// ByFragment enables the call-by-fragment protocol extension for
	// outgoing execute-at calls (paper footnote 4).
	ByFragment bool
	// NestedLoops turns off both §4 hash paths, the FLWOR hash join and
	// the predicate index, so every join runs as the nested loop the
	// query spells out: the reference for differential tests and the
	// "off" side of the ablation benchmarks.
	NestedLoops bool
	// MaxRecursion bounds user-function recursion depth (default 4096).
	MaxRecursion int
}

// New creates an engine over the given resolvers. rpc may be nil, in
// which case execute at raises an error.
func New(docs DocResolver, modules ModuleResolver, rpc RPCCaller) *Engine {
	return &Engine{Docs: docs, Modules: modules, RPC: rpc}
}

// funcKey identifies a function by namespace URI, local name and arity.
type funcKey struct {
	uri   string
	local string
	arity int
}

// boundFunc couples a declaration with the module whose static context
// its body must see.
type boundFunc struct {
	decl   *xq.FuncDecl
	module *xq.Module
	// importURI/atHint record how the *calling* module imported the
	// function's module — needed to address execute-at requests.
	atHint string
}

// Compiled is a compiled (parsed + import-resolved) query, ready to run.
// Compiled values are immutable and safe for concurrent Eval calls; this
// is what the server's function cache stores.
type Compiled struct {
	engine  *Engine
	main    *xq.Module
	modules map[string]*xq.Module // by namespace URI
	funcs   map[funcKey]*boundFunc
	globals []*xq.VarDecl
	// CompileTime is how long parsing+resolution took (Table 3 "compile").
	CompileTime time.Duration
}

// Module returns the parsed main module.
func (c *Compiled) Module() *xq.Module { return c.main }

// ModuleURIs lists the namespace URIs this compilation depends on: the
// main module's own URI (when it is a library) plus every transitively
// imported module. A plan cache uses this as the invalidation set —
// re-registering any of these modules makes the plan stale.
func (c *Compiled) ModuleURIs() []string {
	uris := make([]string, 0, len(c.modules)+1)
	if c.main.IsLibrary && c.main.ModuleURI != "" {
		uris = append(uris, c.main.ModuleURI)
	}
	for uri := range c.modules {
		if uri != c.main.ModuleURI {
			uris = append(uris, uri)
		}
	}
	return uris
}

// Option returns a declared prolog option value ("" when absent).
func (c *Compiled) Option(name string) string { return c.main.Options[name] }

// IsUpdating reports whether the query body contains update expressions
// or calls to updating functions (a static property per XQUF).
func (c *Compiled) IsUpdating() bool {
	if c.main.Body == nil {
		return false
	}
	return exprIsUpdating(c.main.Body, c)
}

// Compile parses src and resolves its module imports.
func (e *Engine) Compile(src string) (*Compiled, error) {
	start := time.Now()
	m, err := xq.Parse(src)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		engine:  e,
		main:    m,
		modules: map[string]*xq.Module{},
		funcs:   map[funcKey]*boundFunc{},
	}
	if err := c.registerModule(m, ""); err != nil {
		return nil, err
	}
	if err := c.resolveImports(m); err != nil {
		return nil, err
	}
	c.CompileTime = time.Since(start)
	return c, nil
}

// CompileModule compiles a library module source for direct invocation
// (used by the XRPC server to execute requested functions).
func (e *Engine) CompileModule(src string) (*Compiled, error) {
	c, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	if !c.main.IsLibrary {
		return nil, fmt.Errorf("interp: not a library module")
	}
	return c, nil
}

func (c *Compiled) resolveImports(m *xq.Module) error {
	for _, imp := range m.Imports {
		if _, done := c.modules[imp.URI]; done {
			continue
		}
		if c.engine.Modules == nil {
			return xdm.Errorf("XQST0059", "no module resolver for %q", imp.URI)
		}
		lib, err := c.engine.Modules.ResolveModule(imp.URI, imp.AtHints)
		if err != nil {
			return xdm.Errorf("XQST0059", "could not load module %q: %v", imp.URI, err)
		}
		if !lib.IsLibrary || lib.ModuleURI != imp.URI {
			return xdm.Errorf("XQST0059", "module %q does not declare namespace %q", imp.URI, imp.URI)
		}
		hint := ""
		if len(imp.AtHints) > 0 {
			hint = imp.AtHints[0]
		}
		if err := c.registerModule(lib, hint); err != nil {
			return err
		}
		if err := c.resolveImports(lib); err != nil {
			return err
		}
	}
	return nil
}

func (c *Compiled) registerModule(m *xq.Module, atHint string) error {
	uri := m.ModuleURI
	if m.IsLibrary {
		c.modules[uri] = m
	}
	for _, f := range m.Functions {
		local := f.LocalName()
		fnURI := uri
		if !m.IsLibrary {
			// main-module functions live in their declared prefix's URI
			fnURI = m.Namespaces[prefixOf(f.Name)]
		}
		key := funcKey{uri: fnURI, local: local, arity: f.Arity()}
		if _, dup := c.funcs[key]; dup {
			return xdm.Errorf("XQST0034", "duplicate function %s#%d", f.Name, f.Arity())
		}
		c.funcs[key] = &boundFunc{decl: f, module: m, atHint: atHint}
	}
	c.globals = append(c.globals, m.Variables...)
	return nil
}

func prefixOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[:i]
		}
	}
	return ""
}

// lookupFunc resolves a prefixed call name in the static context of
// module m.
func (c *Compiled) lookupFunc(m *xq.Module, name string, arity int) (*boundFunc, bool) {
	prefix := prefixOf(name)
	local := name
	if prefix != "" {
		local = name[len(prefix)+1:]
	}
	uri := m.Namespaces[prefix]
	if f, ok := c.funcs[funcKey{uri: uri, local: local, arity: arity}]; ok {
		return f, true
	}
	// main module: unprefixed user functions
	if f, ok := c.funcs[funcKey{uri: "", local: local, arity: arity}]; ok && prefix == "" {
		return f, true
	}
	return nil, false
}

// EvalOptions configure one evaluation.
type EvalOptions struct {
	// Vars binds external variables ($x etc.).
	Vars map[string]xdm.Sequence
	// Docs overrides the engine's document resolver (e.g. a snapshot).
	Docs DocResolver
	// RPC overrides the engine's RPC caller (e.g. a per-query client
	// carrying the queryID of the request being served).
	RPC RPCCaller
	// CollectUpdates, when true, permits update expressions; their
	// pending update list is returned instead of applied.
	CollectUpdates bool
	// Counts, when set, accumulates the hash paths the evaluation took.
	Counts *HashCounts
}

// Eval evaluates the main module body. For updating queries the pending
// update list is returned; it is the caller's responsibility to apply it
// (XQUF semantics: side effects happen after query evaluation).
func (c *Compiled) Eval(opts *EvalOptions) (xdm.Sequence, *UpdateList, error) {
	if c.main.Body == nil {
		return nil, nil, fmt.Errorf("interp: library module has no body")
	}
	if opts == nil {
		opts = &EvalOptions{}
	}
	ctx := c.newDynCtx(opts)
	// prolog variables
	for _, v := range c.globals {
		if v.Val == nil {
			continue
		}
		val, err := ctx.eval(v.Val)
		if err != nil {
			return nil, nil, err
		}
		ctx.bind(v.Name, val)
	}
	seq, err := ctx.eval(c.main.Body)
	if err != nil {
		return nil, nil, err
	}
	if len(ctx.pul.Prims) > 0 && !opts.CollectUpdates {
		return nil, nil, xdm.NewError("XUST0001", "updating expression in non-updating context")
	}
	return seq, ctx.pul, nil
}

// CallFunction directly invokes a declared function with the given
// arguments (the server-side entry point for XRPC requests). The
// function is addressed by local name and arity within module uri; when
// uri is "" the first match by local name wins.
func (c *Compiled) CallFunction(uri, local string, args []xdm.Sequence, opts *EvalOptions) (xdm.Sequence, *UpdateList, error) {
	if opts == nil {
		opts = &EvalOptions{}
	}
	var f *boundFunc
	if uri != "" {
		f = c.funcs[funcKey{uri: uri, local: local, arity: len(args)}]
	}
	if f == nil {
		for k, cand := range c.funcs {
			if k.local == local && k.arity == len(args) {
				f = cand
				break
			}
		}
	}
	if f == nil {
		return nil, nil, xdm.Errorf("XPST0017", "function %s#%d not found in module %q", local, len(args), uri)
	}
	ctx := c.newDynCtx(opts)
	seq, err := ctx.callBound(f, args)
	if err != nil {
		return nil, nil, err
	}
	return seq, ctx.pul, nil
}

// FunctionUpdating reports whether a bulk request addressed the way
// CallFunction addresses it (local name + arity within module uri) may
// resolve to an XQUF updating function. The server consults this before
// evaluating the calls of a bulk request concurrently: updating calls
// must stay sequential. CallFunction's fallback for unmatched URIs picks
// an arbitrary local-name match, so this deliberately answers true if
// ANY candidate is updating — erring toward sequential execution.
func (c *Compiled) FunctionUpdating(uri, local string, arity int) bool {
	if uri != "" {
		if f, ok := c.funcs[funcKey{uri: uri, local: local, arity: arity}]; ok {
			return f.decl.Updating
		}
	}
	for k, f := range c.funcs {
		if k.local == local && k.arity == arity && f.decl.Updating {
			return true
		}
	}
	return false
}

func (c *Compiled) newDynCtx(opts *EvalOptions) *dynCtx {
	docs := c.engine.Docs
	if opts.Docs != nil {
		docs = opts.Docs
	}
	maxRec := c.engine.MaxRecursion
	if maxRec <= 0 {
		maxRec = 4096
	}
	rpc := c.engine.RPC
	if opts.RPC != nil {
		rpc = opts.RPC
	}
	counts := opts.Counts
	if counts == nil {
		counts = &HashCounts{}
	}
	ctx := &dynCtx{
		c:      c,
		module: c.main,
		docs:   docs,
		rpc:    rpc,
		pul:    &UpdateList{},
		memo:   &evalMemo{counts: counts},
		maxRec: maxRec,
	}
	for name, val := range opts.Vars {
		ctx.bind(name, val)
	}
	return ctx
}
