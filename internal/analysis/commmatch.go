package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// CommMatch is the flow-sensitive, whole-package MPI protocol analyzer.
// It builds per-function def-use chains (flow.go) to resolve the rank,
// peer, tag and communicator of every Send/Isend/Recv/Irecv/RecvAll and
// collective call, then matches the two sides of each protocol:
//
//   - a rank-conditioned send whose constant tag no receive in the
//     package could ever match (unmatched send, tag mismatch, or a
//     receive that exists only on a different communicator);
//   - collective call sequences that diverge between the two arms of a
//     rank-conditioned branch (rank sets would execute different
//     collectives and mismatch);
//   - cyclic waits-for patterns between rank-pinned branches — each
//     rank blocking in a Recv from the other before its first send to
//     it — which the runtime only catches when its watchdog expires, as a
//     deadlock; the diagnostic names both endpoints.
//
// Diagnostics report at the send (or branch) site and embed the other
// endpoint's position, turning the runtime's fail-fast into a
// compile-time report.
var CommMatch = &Analyzer{
	Name: "commmatch",
	Doc: "match Send/Isend against Recv/Irecv/RecvAll by (comm, peer, tag) " +
		"and flag unmatched rank-conditioned sends, tag/comm mismatches, " +
		"diverging collective sequences and cyclic recv-before-send waits",
	Run: runCommMatch,
}

// opKind classifies one communication call site.
type opKind uint8

const (
	opSend opKind = iota
	opRecv
	opColl
)

// sendMethods maps blocking and nonblocking send methods to the argument
// indices of (peer, tag).
var sendMethods = map[string][2]int{
	"Send": {0, 1}, "SendInts": {0, 1}, "SendBytes": {0, 1},
	"SendVirtual": {0, 1}, "Isend": {0, 1},
}

// recvMethods maps receive methods to the argument indices of (peer,
// tag); a peer index of -1 means the receive matches any source.
var recvMethods = map[string][2]int{
	"Recv": {0, 1}, "RecvInts": {0, 1}, "RecvBytes": {0, 1},
	"Irecv": {0, 1}, "RecvAll": {-1, 1},
}

// blockingRecv marks the receive methods that park the calling rank
// until a message arrives (Irecv completes at Wait time instead).
var blockingRecv = map[string]bool{
	"Recv": true, "RecvInts": true, "RecvBytes": true, "RecvAll": true,
}

// condFact is one enclosing branch condition that reads a rank.
type condFact struct {
	comm string // identity of the communicator read ("?" for rank-named idents)
	eq   bool   // the taken branch pins comm's rank to exactly val
	val  int64
}

// commOp is one communication call site with its resolved protocol
// coordinates and the rank conditions guarding it.
type commOp struct {
	kind    opKind
	method  string
	comm    string
	peer    symVal
	anyPeer bool
	tag     symVal
	pos     token.Pos
	conds   []condFact
	blocks  bool // blocking receive
}

// pinnedRank returns the (comm, rank) this op's conditions pin it to,
// if any condition is an exact equality.
func (op *commOp) pinnedRank() (comm string, val int64, ok bool) {
	for _, c := range op.conds {
		if c.eq {
			return c.comm, c.val, true
		}
	}
	return "", 0, false
}

func runCommMatch(pass *Pass) {
	var fnOps [][]*commOp
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fl := newFuncFlow(pass, fd.Body)
			ops := collectCommOps(pass, fl, fd.Body)
			if len(ops) > 0 {
				fnOps = append(fnOps, ops)
			}
			checkCollectiveDivergence(pass, fl, fd.Body)
		}
	}

	// Package-wide receive index for send matching.
	var allRecvs []*commOp
	for _, ops := range fnOps {
		for _, op := range ops {
			if op.kind == opRecv {
				allRecvs = append(allRecvs, op)
			}
		}
	}
	for _, ops := range fnOps {
		checkUnmatchedSends(pass, ops, allRecvs)
		checkWaitCycles(pass, ops)
	}
}

// collectCommOps walks one function body in program order, maintaining
// the stack of rank conditions, and records every communication call.
func collectCommOps(pass *Pass, fl *funcFlow, body *ast.BlockStmt) []*commOp {
	var ops []*commOp
	var walk func(n ast.Node, conds []condFact)
	walkList := func(list []ast.Stmt, conds []condFact) {
		for _, s := range list {
			walk(s, conds)
		}
	}
	push := func(conds []condFact, facts []condFact) []condFact {
		if len(facts) == 0 {
			return conds
		}
		return append(append([]condFact{}, conds...), facts...)
	}
	walk = func(n ast.Node, conds []condFact) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.IfStmt:
			walk(n.Init, conds)
			walk(n.Cond, conds)
			walkList(n.Body.List, push(conds, condFacts(pass, fl, n.Cond, false)))
			walk(n.Else, push(conds, condFacts(pass, fl, n.Cond, true)))
		case *ast.SwitchStmt:
			walk(n.Init, conds)
			for _, cc := range n.Body.List {
				clause := cc.(*ast.CaseClause)
				facts := switchFacts(pass, fl, n.Tag, clause.List)
				walkList(clause.Body, push(conds, facts))
			}
		case *ast.BlockStmt:
			walkList(n.List, conds)
		case *ast.CallExpr:
			if op := matchCommOp(pass, fl, n, conds); op != nil {
				ops = append(ops, op...)
			}
			walk(n.Fun, conds)
			for _, a := range n.Args {
				walk(a, conds)
			}
		default:
			children(n, func(c ast.Node) { walk(c, conds) })
		}
	}
	walkList(body.List, nil)
	return ops
}

// matchCommOp classifies one call expression as zero or more commOps
// (SendRecv contributes both a send and a receive).
func matchCommOp(pass *Pass, fl *funcFlow, call *ast.CallExpr, conds []condFact) []*commOp {
	sel, ok := methodCall(call)
	if !ok || !isCommReceiver(pass, sel.X) {
		return nil
	}
	name := sel.Sel.Name
	comm := fl.commID(sel.X)
	conds = append([]condFact{}, conds...)
	mk := func(kind opKind, peerIdx, tagIdx int) *commOp {
		op := &commOp{
			kind: kind, method: name, comm: comm,
			pos: call.Pos(), conds: conds,
		}
		if peerIdx < 0 {
			op.anyPeer = true
		} else if peerIdx < len(call.Args) {
			op.peer = fl.resolve(call.Args[peerIdx])
		}
		if tagIdx >= 0 && tagIdx < len(call.Args) {
			op.tag = fl.resolve(call.Args[tagIdx])
		}
		return op
	}
	if idx, ok := sendMethods[name]; ok {
		return []*commOp{mk(opSend, idx[0], idx[1])}
	}
	if idx, ok := recvMethods[name]; ok {
		op := mk(opRecv, idx[0], idx[1])
		op.blocks = blockingRecv[name]
		return []*commOp{op}
	}
	if name == "SendRecv" {
		// SendRecv(to, sendTag, data, from, recvTag): both halves.
		s := mk(opSend, 0, 1)
		r := mk(opRecv, 3, 4)
		r.blocks = true
		return []*commOp{s, r}
	}
	if collectiveMethods[name] {
		return []*commOp{mk(opColl, -1, -1)}
	}
	return nil
}

// condFacts extracts rank facts from one branch condition. negated is
// true for the else arm.
func condFacts(pass *Pass, fl *funcFlow, cond ast.Expr, negated bool) []condFact {
	if cond == nil {
		return nil
	}
	var facts []condFact
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if !negated {
				// Both conjuncts hold in the taken branch.
				return append(condFacts(pass, fl, e.X, false), condFacts(pass, fl, e.Y, false)...)
			}
			// !(a && b): either side may have failed — weaken both.
			return append(weaken(condFacts(pass, fl, e.X, false)), weaken(condFacts(pass, fl, e.Y, false))...)
		case token.LOR:
			if negated {
				return append(condFacts(pass, fl, e.X, true), condFacts(pass, fl, e.Y, true)...)
			}
			return append(weaken(condFacts(pass, fl, e.X, false)), weaken(condFacts(pass, fl, e.Y, false))...)
		case token.EQL, token.NEQ:
			x, y := fl.resolve(e.X), fl.resolve(e.Y)
			if x.kind == symConst && y.kind == symRank {
				x, y = y, x
			}
			if x.kind == symRank && y.kind == symConst {
				pins := (e.Op == token.EQL) != negated
				return []condFact{{comm: x.comm, eq: pins, val: y.val - x.val}}
			}
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			x, y := fl.resolve(e.X), fl.resolve(e.Y)
			if x.kind == symRank || y.kind == symRank {
				comm := x.comm
				if y.kind == symRank {
					comm = y.comm
				}
				return []condFact{{comm: comm}}
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return condFacts(pass, fl, e.X, !negated)
		}
	}
	// Fallback: any rank read inside the condition leaves a non-equality
	// fact; rank-named identifiers with no traceable origin are wildcards.
	recvs, wildcard := condRankReceivers(pass, cond, nil)
	for _, r := range sortedCondComms(recvs) {
		facts = append(facts, condFact{comm: r})
	}
	if wildcard && !rankCompareToConst(pass, fl, cond, &facts, negated) {
		facts = append(facts, condFact{comm: "?"})
	}
	return facts
}

// rankCompareToConst handles `rank == 0` where rank is a rank-named
// identifier with no traceable origin (a parameter): it still pins the
// wildcard communicator's rank for the cycle check.
func rankCompareToConst(pass *Pass, fl *funcFlow, cond ast.Expr, facts *[]condFact, negated bool) bool {
	e, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (e.Op != token.EQL && e.Op != token.NEQ) {
		return false
	}
	id, c := ast.Unparen(e.X), e.Y
	if _, isIdent := id.(*ast.Ident); !isIdent {
		id, c = ast.Unparen(e.Y), e.X
	}
	ident, ok := id.(*ast.Ident)
	if !ok || !rankWordIdents[strings.ToLower(ident.Name)] {
		return false
	}
	v := fl.resolve(c)
	if v.kind != symConst {
		return false
	}
	pins := (e.Op == token.EQL) != negated
	*facts = append(*facts, condFact{comm: "?", eq: pins, val: v.val})
	return true
}

// weaken strips the equality pin off facts (the branch still depends on
// the rank, but no longer pins it to one value).
func weaken(facts []condFact) []condFact {
	out := make([]condFact, len(facts))
	for i, f := range facts {
		out[i] = condFact{comm: f.comm}
	}
	return out
}

func sortedCondComms(recvs map[string]bool) []string {
	out := make([]string, 0, len(recvs))
	for r := range recvs {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// switchFacts derives facts for one switch case: `switch rank { case 0: }`
// pins the rank; rank reads in tagless case expressions weaken.
func switchFacts(pass *Pass, fl *funcFlow, tag ast.Expr, caseExprs []ast.Expr) []condFact {
	var facts []condFact
	if tag != nil {
		if v := fl.resolve(tag); v.kind == symRank {
			if len(caseExprs) == 1 {
				if c := fl.resolve(caseExprs[0]); c.kind == symConst {
					return []condFact{{comm: v.comm, eq: true, val: c.val - v.val}}
				}
			}
			if len(caseExprs) > 0 {
				return []condFact{{comm: v.comm}}
			}
			// default clause: rank-dependent but unpinned.
			return []condFact{{comm: v.comm}}
		}
		return nil
	}
	for _, e := range caseExprs {
		facts = append(facts, condFacts(pass, fl, e, false)...)
	}
	return weaken(facts)
}

// ---- check 1: unmatched rank-conditioned sends ------------------------------

func checkUnmatchedSends(pass *Pass, ops []*commOp, allRecvs []*commOp) {
	var localRecvs []*commOp
	for _, op := range ops {
		if op.kind == opRecv {
			localRecvs = append(localRecvs, op)
		}
	}
	for _, s := range ops {
		if s.kind != opSend || len(s.conds) == 0 || s.tag.kind != symConst {
			continue
		}
		// Matched if any receive in the package could take this tag —
		// same-function receives must also agree on the communicator,
		// cross-function ones match on tag alone (their comm identities
		// are not comparable across scopes).
		matched := false
		for _, r := range allRecvs {
			if !sameTag(s.tag, r.tag) {
				continue
			}
			if inSameSet(r, localRecvs) && r.comm != s.comm {
				continue
			}
			matched = true
			break
		}
		if matched {
			continue
		}
		// Unmatched: pick the most useful evidence for the report.
		if r := nearestRecv(localRecvs, func(r *commOp) bool { return r.comm == s.comm && r.tag.kind == symConst }); r != nil {
			pass.Reportf(s.pos,
				"%s with tag %d on %s has no matching receive: the nearest receive on %s (%s) uses tag %d — constant tag mismatch",
				s.method, s.tag.val, s.comm, s.comm, pass.at(r.pos), r.tag.val)
			continue
		}
		if r := nearestRecv(localRecvs, func(r *commOp) bool { return sameTag(s.tag, r.tag) }); r != nil {
			pass.Reportf(s.pos,
				"%s with tag %d on %s has no matching receive on that communicator: the receive with this tag (%s) listens on %s — communicator mismatch",
				s.method, s.tag.val, s.comm, pass.at(r.pos), r.comm)
			continue
		}
		pass.Reportf(s.pos,
			"rank-conditioned %s with tag %d on %s has no reachable matching receive in this package: the destination rank would wait forever",
			s.method, s.tag.val, s.comm)
	}
}

func inSameSet(op *commOp, set []*commOp) bool {
	for _, o := range set {
		if o == op {
			return true
		}
	}
	return false
}

func nearestRecv(recvs []*commOp, match func(*commOp) bool) *commOp {
	for _, r := range recvs {
		if match(r) {
			return r
		}
	}
	return nil
}

// at renders a position compactly for embedding in a diagnostic message.
func (p *Pass) at(pos token.Pos) string {
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(position.Filename), position.Line)
}

// ---- check 2: diverging collective sequences --------------------------------

// checkCollectiveDivergence compares the ordered collective sequences of
// the two arms of every rank-conditioned if/else: different sequences
// mean the two rank sets execute different collectives and mismatch.
func checkCollectiveDivergence(pass *Pass, fl *funcFlow, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Else == nil {
			return true
		}
		if len(condFacts(pass, fl, ifs.Cond, false)) == 0 {
			return true
		}
		thenSeq := collectiveSeq(pass, ifs.Body)
		elseSeq := collectiveSeq(pass, ifs.Else)
		if len(thenSeq) == 0 && len(elseSeq) == 0 {
			return true
		}
		if !equalSeq(thenSeq, elseSeq) {
			pass.Reportf(ifs.Pos(),
				"collective sequence diverges across this rank-conditioned branch: [%s] vs [%s] — the two rank sets would mismatch collectives",
				strings.Join(thenSeq, " "), strings.Join(elseSeq, " "))
		}
		return true
	})
}

func collectiveSeq(pass *Pass, n ast.Node) []string {
	var seq []string
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := methodCall(call); ok && collectiveMethods[sel.Sel.Name] && isCommReceiver(pass, sel.X) {
			seq = append(seq, sel.Sel.Name)
		}
		return true
	})
	return seq
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- check 3: cyclic waits-for between rank-pinned branches -----------------

// checkWaitCycles builds a waits-for graph between rank-pinned branches
// of one function: an edge K→L means rank K blocks in a receive from
// rank L before its first send to L (sends are eager, so a send before
// the receive would unblock L). A cycle is a guaranteed runtime
// deadlock; the diagnostic names every endpoint.
func checkWaitCycles(pass *Pass, ops []*commOp) {
	// Group ops by (cond comm, pinned rank), preserving program order.
	type branchKey struct {
		comm string
		rank int64
	}
	branches := map[branchKey][]*commOp{}
	var keys []branchKey
	for _, op := range ops {
		comm, val, ok := op.pinnedRank()
		if !ok {
			continue
		}
		k := branchKey{comm, val}
		if _, seen := branches[k]; !seen {
			keys = append(keys, k)
		}
		branches[k] = append(branches[k], op)
	}
	if len(keys) < 2 {
		return
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].comm != keys[j].comm {
			return keys[i].comm < keys[j].comm
		}
		return keys[i].rank < keys[j].rank
	})

	// waitEdge[K] = the blocking receive op and peer L it waits on.
	type edge struct {
		to   branchKey
		recv *commOp
	}
	edges := map[branchKey][]edge{}
	for _, k := range keys {
		firstSend := map[int64]int{}
		for i, op := range branches[k] {
			if op.kind == opSend && op.peer.kind == symConst {
				if _, seen := firstSend[op.peer.val]; !seen {
					firstSend[op.peer.val] = i
				}
			}
		}
		for i, op := range branches[k] {
			if op.kind != opRecv || !op.blocks || op.peer.kind != symConst {
				continue
			}
			l := branchKey{k.comm, op.peer.val}
			if l == k {
				continue
			}
			if s, ok := firstSend[op.peer.val]; ok && s < i {
				continue // sent to the peer before blocking on it
			}
			edges[k] = append(edges[k], edge{to: l, recv: op})
			break // only the first blocking wait per branch can deadlock it
		}
	}

	// DFS for a cycle over the small branch graph.
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[branchKey]int{}
	var stack []edge
	var stackKeys []branchKey
	var cycle []edge
	var dfs func(k branchKey) bool
	dfs = func(k branchKey) bool {
		state[k] = inStack
		stackKeys = append(stackKeys, k)
		for _, e := range edges[k] {
			if _, exists := branches[e.to]; !exists {
				continue // waits on a rank with no pinned branch here
			}
			switch state[e.to] {
			case inStack:
				// Found a cycle: slice the stack from e.to onward.
				stack = append(stack, e)
				for i, sk := range stackKeys {
					if sk == e.to {
						cycle = append([]edge{}, stack[i:]...)
						return true
					}
				}
				cycle = append([]edge{}, stack...)
				return true
			case unvisited:
				stack = append(stack, e)
				if dfs(e.to) {
					return true
				}
				stack = stack[:len(stack)-1]
			}
		}
		stackKeys = stackKeys[:len(stackKeys)-1]
		state[k] = done
		return false
	}
	for _, k := range keys {
		if state[k] == unvisited {
			stack = stack[:0]
			stackKeys = stackKeys[:0]
			if dfs(k) {
				break
			}
		}
	}
	if len(cycle) == 0 {
		return
	}
	var legs []string
	for _, e := range cycle {
		comm, val, _ := e.recv.pinnedRank()
		legs = append(legs, fmt.Sprintf("rank %d of %s blocks in %s from rank %d (%s) before any send to it",
			val, comm, e.recv.method, e.recv.peer.val, pass.at(e.recv.pos)))
	}
	pass.Reportf(cycle[0].recv.pos,
		"cyclic waits-for between rank-pinned branches — guaranteed deadlock the watchdog would only catch at runtime: %s",
		strings.Join(legs, "; "))
}
