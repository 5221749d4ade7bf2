// Facts: interprocedural function summaries, alexlint's stdlib-only
// analogue of golang.org/x/tools go/analysis facts.
//
// A FuncFacts value summarizes one function's externally relevant
// behavior — "may block on I/O", "performs an outbound HTTP request",
// "journals durably before returning", "writes an HTTP response
// status". The loader computes facts for every module package in the
// dependency graph (phase two of the load, after all sources are
// typechecked) by seeding intrinsic knowledge about standard-library
// and contract functions, then propagating the bits caller-ward over
// the repo-wide call graph to a fixpoint. Analyzers consult facts
// through Pass.FuncFacts, which is how lockhold can know that
// Server.checkpoint eventually fsyncs without reimplementing a
// whole-program dataflow.
//
// Facts are deliberately summaries, not dataflow (DESIGN.md decision
// 14): a bit answers "can calling F do X at all", never "does this
// call to F do X with these arguments". The identity that makes the
// scheme work across load modes is the canonical string key (FuncKey):
// the same function seen through source typechecking and through
// export data yields different *types.Func objects but the same key,
// so facts serialize losslessly into go vet's .vetx fact files.
package analysis

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncFacts is the summary of one function. The zero value means
// "nothing known", which for analyzers reads as "safe": facts
// under-approximate on function values and unresolvable dynamic calls
// (see DESIGN.md decision 14 for what that misses).
type FuncFacts struct {
	// MayBlock: calling this function may block the caller's goroutine
	// on I/O or time — file reads/writes, fsync, network traffic,
	// subprocess waits, sleeps. Channel operations are deliberately NOT
	// propagated: a callee using channels for bounded internal
	// parallelism (internal/core's parallel build) does not hold the
	// caller hostage the way unbounded I/O does, and lockhold checks
	// channel ops syntactically in the locked region instead.
	MayBlock    bool   `json:"may_block,omitempty"`
	BlockReason string `json:"block_reason,omitempty"` // "file I/O", "fsync", "HTTP", ...
	BlockVia    string `json:"block_via,omitempty"`    // callee key the bit arrived through

	// Outbound: the function transitively performs an HTTP request.
	Outbound    bool   `json:"outbound,omitempty"`
	OutboundVia string `json:"outbound_via,omitempty"`

	// HasCtx: the function's own signature accepts a context.Context
	// (or an *http.Request, which carries one). Not propagated — it is
	// a property of the signature, and together with Outbound it lets
	// ctxflow flag "performs requests but offers callers no way to
	// scope them".
	HasCtx bool `json:"has_ctx,omitempty"`

	// Journals: the function transitively reaches a durable write that
	// backs an ack — (*wal.Log).Append locally, or a Client RPC whose
	// non-error return means the remote shard journaled and fsynced
	// (Feedback, FeedbackResult). txnorder and ackorder treat such calls as
	// barriers that must dominate a 202.
	Journals    bool   `json:"journals,omitempty"`
	JournalsVia string `json:"journals_via,omitempty"`

	// AcksHTTP: the function transitively calls
	// net/http.ResponseWriter.WriteHeader — it can commit a response
	// status. Combined with a constant 202 argument at the call site
	// this identifies ack writers like writeJSON across packages.
	AcksHTTP bool   `json:"acks_http,omitempty"`
	AcksVia  string `json:"acks_via,omitempty"`
}

func (f FuncFacts) interesting() bool {
	return f.MayBlock || f.Outbound || f.HasCtx || f.Journals || f.AcksHTTP
}

// merge ORs other's bits into f, keeping the first Via/Reason seen.
func (f *FuncFacts) merge(other FuncFacts) bool {
	changed := false
	if other.MayBlock && !f.MayBlock {
		f.MayBlock, f.BlockReason, f.BlockVia = true, other.BlockReason, other.BlockVia
		changed = true
	}
	if other.Outbound && !f.Outbound {
		f.Outbound, f.OutboundVia = true, other.OutboundVia
		changed = true
	}
	if other.HasCtx && !f.HasCtx {
		f.HasCtx = true
		changed = true
	}
	if other.Journals && !f.Journals {
		f.Journals, f.JournalsVia = true, other.JournalsVia
		changed = true
	}
	if other.AcksHTTP && !f.AcksHTTP {
		f.AcksHTTP, f.AcksVia = true, other.AcksVia
		changed = true
	}
	return changed
}

// FactSet is the computed fact table for one load: canonical function
// key → summary. Lookups fall back to the intrinsic seed table, so a
// nil or empty set still answers correctly for standard-library
// functions.
type FactSet struct {
	funcs map[string]FuncFacts
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet { return &FactSet{funcs: map[string]FuncFacts{}} }

// ForFunc returns the facts for fn: the computed entry if the load saw
// it, otherwise fn's intrinsic seed facts. ok reports whether anything
// is known at all.
func (s *FactSet) ForFunc(fn *types.Func) (FuncFacts, bool) {
	if fn == nil {
		return FuncFacts{}, false
	}
	if s != nil && s.funcs != nil {
		if f, ok := s.funcs[FuncKey(fn)]; ok {
			return f, true
		}
	}
	f, ok := seedFacts(fn)
	return f, ok
}

// Lookup returns the facts stored under a canonical key.
func (s *FactSet) Lookup(key string) (FuncFacts, bool) {
	if s == nil || s.funcs == nil {
		return FuncFacts{}, false
	}
	f, ok := s.funcs[key]
	return f, ok
}

// Len reports the number of stored summaries.
func (s *FactSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.funcs)
}

// Keys returns the stored keys, sorted — for tests and debugging.
func (s *FactSet) Keys() []string {
	if s == nil {
		return nil
	}
	keys := make([]string, 0, len(s.funcs))
	for k := range s.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EncodeJSON serializes the set for a go vet .vetx fact file: one JSON
// object, canonical key → facts, only interesting entries.
func (s *FactSet) EncodeJSON() ([]byte, error) {
	out := map[string]FuncFacts{}
	if s != nil {
		for k, f := range s.funcs {
			if f.interesting() {
				out[k] = f
			}
		}
	}
	return json.Marshal(out)
}

// DecodeJSON merges a serialized fact table (as written by EncodeJSON)
// into the set. Empty input is a valid empty table: cmd/go creates
// zero-length vetx files for packages a tool had nothing to say about.
func (s *FactSet) DecodeJSON(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	m := map[string]FuncFacts{}
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for k, f := range m {
		cur := s.funcs[k]
		cur.merge(f)
		s.funcs[k] = cur
	}
	return nil
}

// FuncKey returns the canonical, load-mode-independent identity of a
// function: "pkgpath.Name" for package functions, "pkgpath.(Recv).Name"
// or "pkgpath.(*Recv).Name" for methods (including interface methods).
// Generic instantiations key as their origin.
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	name := fn.Name()
	pkg := fn.Pkg()
	if pkg == nil {
		return name // universe scope: error.Error
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg.Path() + "." + name
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv, ptr = p.Elem(), "*"
	}
	recvName := ""
	if named, ok := recv.(*types.Named); ok {
		recvName = named.Obj().Name()
	} else {
		recvName = types.TypeString(recv, func(*types.Package) string { return "" })
	}
	return pkg.Path() + ".(" + ptr + recvName + ")." + name
}

// ---- intrinsic seeds ----

// seedFacts returns the facts known about fn without seeing its body:
// the standard library's blocking and HTTP surface, plus the module's
// durability contract roots. Seeds also apply to source functions (a
// source body for (*wal.Log).Append cannot reveal that an Append IS the
// durability barrier — that is contract knowledge) and are unioned with
// source-derived facts during ComputeFacts.
func seedFacts(fn *types.Func) (FuncFacts, bool) {
	fn = fn.Origin()
	name := fn.Name()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	recv := recvTypeName(fn)

	block := func(reason string) (FuncFacts, bool) {
		return FuncFacts{MayBlock: true, BlockReason: reason}, true
	}

	switch path {
	case "net/http":
		switch recv {
		case "":
			switch name {
			case "Get", "Head", "Post", "PostForm":
				return FuncFacts{MayBlock: true, BlockReason: "HTTP", Outbound: true}, true
			}
		case "Client":
			switch name {
			case "Do":
				return FuncFacts{MayBlock: true, BlockReason: "HTTP", Outbound: true, HasCtx: true}, true
			case "Get", "Head", "Post", "PostForm":
				return FuncFacts{MayBlock: true, BlockReason: "HTTP", Outbound: true}, true
			}
		case "Transport", "RoundTripper":
			if name == "RoundTrip" {
				return FuncFacts{MayBlock: true, BlockReason: "HTTP", Outbound: true, HasCtx: true}, true
			}
		case "ResponseWriter":
			if name == "WriteHeader" {
				return FuncFacts{AcksHTTP: true}, true
			}
		case "Server":
			switch name {
			case "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS", "Shutdown":
				return block("network I/O")
			}
		}
	case "os":
		switch recv {
		case "File":
			switch name {
			case "Sync":
				return block("fsync")
			case "Read", "ReadAt", "ReadFrom", "Write", "WriteAt", "WriteString",
				"WriteTo", "Truncate", "Close", "Seek":
				return block("file I/O")
			}
		case "":
			switch name {
			case "Open", "OpenFile", "Create", "CreateTemp", "MkdirTemp",
				"ReadFile", "WriteFile", "ReadDir", "Remove", "RemoveAll",
				"Rename", "Mkdir", "MkdirAll", "Stat", "Lstat", "Truncate",
				"Symlink", "Link", "Chmod", "Chtimes":
				return block("file I/O")
			}
		}
	case "net":
		switch recv {
		case "":
			switch name {
			case "Dial", "DialTimeout", "Listen", "ListenPacket":
				return block("network I/O")
			}
		case "Dialer":
			switch name {
			case "Dial":
				return block("network I/O")
			case "DialContext":
				return FuncFacts{MayBlock: true, BlockReason: "network I/O", HasCtx: true}, true
			}
		case "Conn", "TCPConn", "UDPConn", "UnixConn":
			switch name {
			case "Read", "Write", "Close":
				return block("network I/O")
			}
		case "Listener", "TCPListener":
			if name == "Accept" || name == "AcceptTCP" {
				return block("network I/O")
			}
		}
	case "time":
		if recv == "" && name == "Sleep" {
			return block("sleep")
		}
	case "os/exec":
		if recv == "Cmd" {
			switch name {
			case "Run", "Wait", "Output", "CombinedOutput":
				return block("subprocess wait")
			}
		}
	case "bufio":
		if recv == "Writer" && name == "Flush" {
			return block("buffered flush")
		}
	}

	// Module contract roots, matched by path suffix so fixture copies
	// and the live packages resolve identically.
	if strings.HasSuffix(path, "internal/wal") {
		if recv == "Log" && name == "Append" {
			return FuncFacts{MayBlock: true, BlockReason: "file I/O", Journals: true}, true
		}
		if recv == "File" {
			// The WAL's File abstraction fronts real files (and fault
			// injection wrappers); every method is I/O.
			if name == "Sync" {
				return block("fsync")
			}
			return block("file I/O")
		}
	}
	if strings.HasSuffix(path, "internal/server") && recv == "Client" {
		switch name {
		// A non-error return from these RPCs means the remote shard
		// journaled and fsynced before acking — durable by contract.
		case "Feedback", "FeedbackContext", "FeedbackResult":
			return FuncFacts{Journals: true}, true
		}
	}

	// Any niladic Sync() error is an fsync-shaped barrier (faultfs
	// wrappers, custom file handles).
	if name == "Sync" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
			sig.Params().Len() == 0 && sig.Results().Len() == 1 {
			if named, ok := sig.Results().At(0).Type().(*types.Named); ok &&
				named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				return block("fsync")
			}
		}
	}

	return FuncFacts{}, false
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// ---- computation ----

// srcFunc is one source-declared function during fact computation.
type srcFunc struct {
	key     string
	callees []string // canonical keys of resolved outbound calls
}

// ComputeFacts builds the fact table for the given source packages
// (dependencies first — go list -deps order). base carries facts
// imported from dependency vetx files in go vet mode; nil means none.
//
// Phase one collects, per declared function, its signature facts and
// resolved call edges; callees that are not source-declared contribute
// their seed facts immediately. Phase two unions seed overlays for
// source functions and propagates MayBlock/Outbound/Journals/AcksHTTP
// caller-ward to a fixpoint (a worklist over the reversed edges, so
// mutual recursion converges to the least fixpoint).
//
// Calls inside `go func() { ... }` bodies are excluded from the
// launching function's summary: the launch itself neither blocks nor
// completes the callee's effects before returning. An async journal is
// therefore NOT a journal — exactly the PR-7 bug shape — and txnorder
// separately credits goroutine barriers only when a dominating
// sync.WaitGroup.Wait proves the ack waits for them.
func ComputeFacts(srcPkgs []*Package, base *FactSet) *FactSet {
	set := NewFactSet()
	if base != nil {
		for k, f := range base.funcs {
			set.funcs[k] = f
		}
	}

	var funcs []srcFunc
	callers := map[string][]int{} // callee key -> indexes into funcs

	for _, pkg := range srcPkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sf := srcFunc{key: FuncKey(obj)}
				facts := set.funcs[sf.key]
				if signatureHasCtx(obj) {
					facts.HasCtx = true
				}
				if seed, ok := seedFacts(obj); ok {
					facts.merge(seed)
				}
				collectCallees(pkg, fd.Body, &sf)
				set.funcs[sf.key] = facts
				funcs = append(funcs, sf)
			}
		}
	}

	// Callees outside the source set (stdlib, export-data-only deps)
	// contribute their seed facts now, so the fixpoint can read them
	// and vet mode serializes them.
	set.seedCallees(srcPkgs)

	for i := range funcs {
		for _, calleeKey := range funcs[i].callees {
			callers[calleeKey] = append(callers[calleeKey], i)
		}
	}

	// Fixpoint: start with every function dirty, pull callee facts in.
	work := make([]int, len(funcs))
	inWork := make([]bool, len(funcs))
	for i := range funcs {
		work[i] = i
		inWork[i] = true
	}
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		inWork[i] = false
		f := funcs[i]
		cur := set.funcs[f.key]
		changed := false
		for _, calleeKey := range f.callees {
			cf, ok := set.funcs[calleeKey]
			if !ok {
				continue
			}
			prop := FuncFacts{}
			if cf.MayBlock {
				prop.MayBlock, prop.BlockReason, prop.BlockVia = true, cf.BlockReason, calleeKey
			}
			if cf.Outbound {
				prop.Outbound, prop.OutboundVia = true, calleeKey
			}
			if cf.Journals {
				prop.Journals, prop.JournalsVia = true, calleeKey
			}
			if cf.AcksHTTP {
				prop.AcksHTTP, prop.AcksVia = true, calleeKey
			}
			if cur.merge(prop) {
				changed = true
			}
		}
		if changed {
			set.funcs[f.key] = cur
			for _, ci := range callers[f.key] {
				if !inWork[ci] {
					work = append(work, ci)
					inWork[ci] = true
				}
			}
		}
	}
	return set
}

// collectCallees records the canonical keys of every resolved call in
// body, skipping goroutine-literal bodies (see ComputeFacts), and
// stores seed facts for non-source callees into the set lazily via the
// caller (the callee key alone is enough — ForFunc falls back to seeds,
// and ComputeFacts pre-stores seeds below).
func collectCallees(pkg *Package, body *ast.BlockStmt, sf *srcFunc) {
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			// Arguments to the launched call evaluate synchronously;
			// the launched body does not.
			for _, arg := range g.Call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if fn := CalleeFunc(pkg.Info, call); fn != nil {
							sf.callees = append(sf.callees, FuncKey(fn))
						}
					}
					return true
				})
			}
			// The launched call itself — literal body or `go s.writer()`
			// — contributes no edge: the launch is asynchronous.
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := CalleeFunc(pkg.Info, call); fn != nil {
				sf.callees = append(sf.callees, FuncKey(fn))
			}
		}
		return true
	})
}

// seedCallees walks the same calls as collectCallees and stores seed
// facts for callees the source set does not cover, so propagation and
// vet-mode serialization see them. Called by ComputeFacts via Load.
func (s *FactSet) seedCallees(pkgs []*Package) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := CalleeFunc(pkg.Info, call)
				if fn == nil {
					return true
				}
				key := FuncKey(fn)
				if _, ok := s.funcs[key]; ok {
					return true
				}
				if seed, ok := seedFacts(fn); ok {
					s.funcs[key] = seed
				}
				return true
			})
		}
	}
}

// signatureHasCtx reports whether fn's parameters include a
// context.Context or an *http.Request (which carries one).
func signatureHasCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isNamed(t, "context", "Context") {
			return true
		}
		if p, ok := t.(*types.Pointer); ok && isNamed(p.Elem(), "net/http", "Request") {
			return true
		}
	}
	return false
}

func isNamed(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for dynamic calls through function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
