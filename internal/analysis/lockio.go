package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockIO enforces the no-blocking-under-mutex invariant: while a
// sync.Mutex or sync.RWMutex is held, a function must not perform
// operations with unbounded latency — file or network I/O, channel sends
// and receives, select, time.Sleep, WaitGroup.Wait. A blocked lock holder
// convoys every other user of that lock; the historical instance is PR 8's
// BufferPool.Get, which held the pool mutex across a page read from the
// backing source, so resident-page *hits* stalled behind one miss's disk
// I/O.
//
// (*sync.Cond).Wait is deliberately allowed: it releases the mutex while
// asleep, and is the sanctioned way to sleep at a lock — the bounded
// queues are built on it.
//
// The analysis is per-function and flow-approximate: a lock is "held" from
// a mu.Lock()/RLock() statement until a matching mu.Unlock()/RUnlock() on
// the same receiver expression in the same or an enclosing block (a
// deferred unlock holds to function end). Branch bodies are analyzed with
// a copy of the held set, so a conditional lock cannot leak into the code
// after the branch. Function literals are independent functions: their
// bodies start lock-free, and launching one (go/defer) is not itself
// blocking. Audited exceptions carry //dbs3lint:ignore lockio <reason>.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc: "no blocking I/O, channel operation, select, or sleep while a sync mutex is held\n\n" +
		"A lock holder that blocks convoys every other goroutine needing the lock. Motivated by\n" +
		"BufferPool.Get holding the pool mutex across source I/O, which serialized cache hits\n" +
		"behind a miss's disk read. Cond.Wait is allowed (it releases the mutex).",
	Run: runLockIO,
}

// blockingCalls maps calleeKey renderings to a short reason. Concrete
// types only; interface methods are matched by name in blockingIfaceMethod.
var blockingCalls = map[string]string{
	"time.Sleep": "sleeps",

	"os.File.Read":        "reads from a file",
	"os.File.ReadAt":      "reads from a file",
	"os.File.ReadFrom":    "reads from a file",
	"os.File.ReadDir":     "reads a directory",
	"os.File.Write":       "writes to a file",
	"os.File.WriteAt":     "writes to a file",
	"os.File.WriteString": "writes to a file",
	"os.File.Sync":        "syncs a file",
	"os.ReadFile":         "reads a file",
	"os.WriteFile":        "writes a file",

	"io.Copy":        "copies a stream",
	"io.CopyN":       "copies a stream",
	"io.CopyBuffer":  "copies a stream",
	"io.ReadAll":     "reads a stream",
	"io.ReadFull":    "reads a stream",
	"io.ReadAtLeast": "reads a stream",
	"io.WriteString": "writes a stream",

	"bufio.Reader.Read":        "reads a buffered stream",
	"bufio.Reader.ReadByte":    "reads a buffered stream",
	"bufio.Reader.ReadBytes":   "reads a buffered stream",
	"bufio.Reader.ReadLine":    "reads a buffered stream",
	"bufio.Reader.ReadRune":    "reads a buffered stream",
	"bufio.Reader.ReadString":  "reads a buffered stream",
	"bufio.Reader.Peek":        "reads a buffered stream",
	"bufio.Writer.Write":       "writes a buffered stream",
	"bufio.Writer.WriteString": "writes a buffered stream",
	"bufio.Writer.Flush":       "flushes a buffered stream",
	"bufio.Writer.ReadFrom":    "copies into a buffered stream",
	"bufio.Scanner.Scan":       "reads a buffered stream",

	"net.Dial":            "dials the network",
	"net.DialTimeout":     "dials the network",
	"net.Dialer.Dial":     "dials the network",
	"net.Listener.Accept": "waits for a connection",

	"net/http.Get":             "performs an HTTP request",
	"net/http.Post":            "performs an HTTP request",
	"net/http.PostForm":        "performs an HTTP request",
	"net/http.Head":            "performs an HTTP request",
	"net/http.Client.Do":       "performs an HTTP request",
	"net/http.Client.Get":      "performs an HTTP request",
	"net/http.Client.Post":     "performs an HTTP request",
	"net/http.Client.PostForm": "performs an HTTP request",
	"net/http.Client.Head":     "performs an HTTP request",

	"os/exec.Cmd.Run":            "waits for a subprocess",
	"os/exec.Cmd.Wait":           "waits for a subprocess",
	"os/exec.Cmd.Output":         "waits for a subprocess",
	"os/exec.Cmd.CombinedOutput": "waits for a subprocess",

	"sync.WaitGroup.Wait": "waits for a WaitGroup",
}

// blockingIfaceMethods: calling any interface method with one of these
// names is treated as potential I/O — the concrete implementation is
// unknowable statically, and in this codebase Read/Write-shaped interface
// methods are I/O by convention (io.Reader, net.Conn, the storage page
// sources). This is exactly the shape of the BufferPool bug.
var blockingIfaceMethods = map[string]bool{
	"Read": true, "ReadAt": true, "ReadFrom": true,
	"Write": true, "WriteAt": true, "WriteTo": true,
	"Flush": true, "Sync": true,
}

func runLockIO(pass *Pass) error {
	l := &lockio{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					l.walkStmts(n.Body.List, map[string]token.Pos{})
				}
			case *ast.FuncLit:
				l.walkStmts(n.Body.List, map[string]token.Pos{})
			}
			return true // nested FuncLits get their own visit
		})
	}
	return nil
}

type lockio struct {
	pass *Pass
}

// walkStmts runs the held-lock state machine over one statement list.
// held maps the rendered receiver expression ("p.mu") to its Lock site.
func (l *lockio) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		l.walkStmt(stmt, held)
	}
}

func (l *lockio) walkStmt(stmt ast.Stmt, held map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, kind := l.mutexEvent(s.X); kind == lockEvt {
			held[key] = s.Pos()
			return
		} else if kind == unlockEvt {
			delete(held, key)
			return
		}
		l.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the remainder;
		// other deferred calls run at return, outside this pass's
		// scope. Argument expressions evaluate now, though.
		if _, kind := l.mutexEvent(s.Call); kind == unlockEvt {
			return
		}
		for _, arg := range s.Call.Args {
			l.scanExpr(arg, held)
		}
	case *ast.GoStmt:
		// The launch itself never blocks; the goroutine body starts
		// lock-free (handled by the FuncLit visit). Arguments
		// evaluate synchronously.
		for _, arg := range s.Call.Args {
			l.scanExpr(arg, held)
		}
	case *ast.BlockStmt:
		l.walkStmts(s.List, copyHeld(held))
	case *ast.IfStmt:
		if s.Init != nil {
			l.walkStmt(s.Init, held)
		}
		l.scanExpr(s.Cond, held)
		l.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			l.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			l.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			l.scanExpr(s.Cond, held)
		}
		inner := copyHeld(held)
		l.walkStmts(s.Body.List, inner)
		if s.Post != nil {
			l.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		if ch := chanType(l.typeOf(s.X)); ch != nil && len(held) > 0 {
			l.report(s.X.Pos(), "receives from a channel", held)
		}
		l.scanExpr(s.X, held)
		l.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			l.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			l.scanExpr(s.Tag, held)
		}
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				for _, v := range cc.List {
					l.scanExpr(v, held)
				}
				l.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			l.walkStmt(s.Init, held)
		}
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				l.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		if len(held) > 0 {
			l.report(s.Pos(), "blocks in select", held)
		}
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok {
				l.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			l.report(s.Arrow, "sends on a channel", held)
		}
		l.scanExpr(s.Chan, held)
		l.scanExpr(s.Value, held)
	case *ast.LabeledStmt:
		l.walkStmt(s.Stmt, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			l.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			l.scanExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			l.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						l.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		l.scanExpr(s.X, held)
	}
}

// scanExpr reports blocking operations inside one expression while any
// lock is held. Function literals are skipped: their bodies do not run
// here.
func (l *lockio) scanExpr(e ast.Expr, held map[string]token.Pos) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				l.report(n.Pos(), "receives from a channel", held)
			}
		case *ast.CallExpr:
			if reason := l.blockingCall(n); reason != "" {
				l.report(n.Pos(), reason, held)
			}
		}
		return true
	})
}

// blockingCall classifies a call as blocking, returning a reason or "".
func (l *lockio) blockingCall(call *ast.CallExpr) string {
	fn := resolveCallee(l.pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	key := calleeKey(fn)
	if reason, ok := blockingCalls[key]; ok {
		return reason
	}
	if recvIsInterface(fn) && blockingIfaceMethods[fn.Name()] {
		return "calls interface method " + fn.Name() + " (potential I/O)"
	}
	return ""
}

type mutexEvtKind int

const (
	noEvt mutexEvtKind = iota
	lockEvt
	unlockEvt
)

// mutexEvent classifies an expression as a sync.Mutex/RWMutex lock or
// unlock call, keyed by the rendered receiver.
func (l *lockio) mutexEvent(e ast.Expr) (string, mutexEvtKind) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", noEvt
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", noEvt
	}
	fn := resolveCallee(l.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", noEvt
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", noEvt
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", noEvt
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, lockEvt
	case "Unlock", "RUnlock":
		return key, unlockEvt
	}
	return "", noEvt
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (l *lockio) typeOf(e ast.Expr) types.Type {
	if tv, ok := l.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (l *lockio) report(pos token.Pos, what string, held map[string]token.Pos) {
	// Name one held lock deterministically (the lexically smallest key).
	var key string
	for k := range held {
		if key == "" || k < key {
			key = k
		}
	}
	l.pass.Reportf(pos, "%s while mutex %q is held (locked at %s)",
		what, key, relPos(l.pass.Fset.Position(held[key])))
}
