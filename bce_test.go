package harmony_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// hotLoops are the functions whose bounds checks are pinned: the
// rank-local MatVec kernel and the lockstep executor's priced Compute
// and Exchange, each named as file and function (Recv.Name for a
// method).
var hotLoops = []struct{ file, fn string }{
	{"internal/sparse/dist.go", "matVecKernel"},
	{"internal/simmpi/lockstep.go", "Lockstep.Compute"},
	{"internal/simmpi/lockstep.go", "Lockstep.Exchange"},
}

// declaredBoundsChecks is every bounds check the compiler keeps in
// hotLoops, one entry per function, check kind and source line (its
// text, trimmed), with the reason it stays. Per nonzero, the kernel
// keeps only the data-dependent xbuf gathers; per message, the
// exchange only its data-dependent receiver, and per sender its rank.
var declaredBoundsChecks = []struct{ fn, kind, line, reason string }{
	{"matVecKernel", "IsInBounds", "s0 += p0[k] * xbuf[q0[k]]", "per nonzero: gather at a column index read from the plan"},
	{"matVecKernel", "IsInBounds", "s1 += p1[k] * xbuf[q1[k]]", "per nonzero: gather at a column index read from the plan"},
	{"matVecKernel", "IsInBounds", "s0 += v0[k] * xbuf[c0[k]]", "per nonzero: gather at a column index read from the plan"},
	{"matVecKernel", "IsInBounds", "s1 += v1[k] * xbuf[c1[k]]", "per nonzero: gather at a column index read from the plan"},
	{"matVecKernel", "IsInBounds", "s += v[k] * xbuf[c[k]]", "per nonzero: gather at a column index read from the plan"},
	{"matVecKernel", "IsInBounds", "v0 := val[rowOff[i]:rowOff[i+1]]", "per row pair: len(rowOff) == len(y)+1 is a checked panic the prover does not carry"},
	{"matVecKernel", "IsSliceInBounds", "v0 := val[rowOff[i]:rowOff[i+1]]", "per row pair: the row window's ends are data"},
	{"matVecKernel", "IsSliceInBounds", "c0 := ci[rowOff[i]:rowOff[i+1]]", "per row pair: the row window's ends are data"},
	{"matVecKernel", "IsInBounds", "v1 := val[rowOff[i+1]:rowOff[i+2]]", "per row pair: len(rowOff) == len(y)+1 is a checked panic the prover does not carry"},
	{"matVecKernel", "IsSliceInBounds", "v1 := val[rowOff[i+1]:rowOff[i+2]]", "per row pair: the row window's ends are data"},
	{"matVecKernel", "IsSliceInBounds", "c1 := ci[rowOff[i+1]:rowOff[i+2]]", "per row pair: the row window's ends are data"},
	{"matVecKernel", "IsSliceInBounds", "p0, q0 := v0[:n], c0[:n]", "per row pair: c0 may be shorter than v0 until resliced"},
	{"matVecKernel", "IsSliceInBounds", "p1, q1 := v1[:n], c1[:n]", "per row pair: c1 may be shorter than v1 until resliced"},
	{"matVecKernel", "IsSliceInBounds", "c0 = c0[:len(v0)]", "per row pair: the reslice that proves the tail loop's c0[k]"},
	{"matVecKernel", "IsSliceInBounds", "c1 = c1[:len(v1)]", "per row pair: the reslice that proves the tail loop's c1[k]"},
	{"matVecKernel", "IsInBounds", "y[i], y[i+1] = s0, s1", "per row pair: the loop bound i+1 < len(y) is not carried to the store"},
	{"matVecKernel", "IsInBounds", "v := val[rowOff[i]:rowOff[i+1]]", "once per call: the odd last row"},
	{"matVecKernel", "IsSliceInBounds", "v := val[rowOff[i]:rowOff[i+1]]", "once per call: the odd last row"},
	{"matVecKernel", "IsSliceInBounds", "c := ci[rowOff[i]:rowOff[i+1]]", "once per call: the odd last row"},
	{"matVecKernel", "IsSliceInBounds", "c = c[:len(v)]", "once per call: the odd last row"},
	{"Lockstep.Compute", "IsSliceInBounds", "dt, comp := l.dts[w.slot*l.n:][:len(clock)], l.comp[:len(clock)]", "once per call: the slot's window, sized to the clocks so the rank loop is proved"},
	{"Lockstep.Exchange", "IsInBounds", "s := l.exchanges[x.slot]", "once per call: the slot"},
	{"Lockstep.Exchange", "IsSliceInBounds", "edges := l.edges[s.lo:s.hi]", "once per call: the slot's edges"},
	{"Lockstep.Exchange", "IsSliceInBounds", "depart := l.depart[:len(edges)]", "once per call: sized to the edges so the message loops are proved"},
	{"Lockstep.Exchange", "IsSliceInBounds", "wait := l.wait[:len(clock)]", "once per call: sized to the clocks so only the receiver's clock is checked"},
	{"Lockstep.Exchange", "IsInBounds", "src, c = e.src, clock[e.src]", "per sender: the rank is data, checked at pricing"},
	{"Lockstep.Exchange", "IsInBounds", "clock[src] = c", "per sender: the rank is data, checked at pricing"},
	{"Lockstep.Exchange", "IsInBounds", "clock[d], wait[d] = waitUntil(clock[d], wait[d], arriveAt(depart[k], e.latency, e.transfer))", "per message: the receiver is data, checked at pricing"},
}

// TestHotLoopsKeepOnlyDeclaredBoundsChecks compiles internal/sparse
// and internal/simmpi with the compiler's bounds-check report and
// fails on any check in hotLoops that declaredBoundsChecks does not
// name. The build is for amd64 whatever the host: the list is the
// 64-bit build's, and a 386 build keeps more.
func TestHotLoopsKeepOnlyDeclaredBoundsChecks(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to read the compiler's bounds checks: %v", err)
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-d=ssa/check_bce", "./internal/sparse", "./internal/simmpi")
	cmd.Env = append(os.Environ(), "GOARCH=amd64", "GOOS=linux", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Each hot loop's line span, and each file's lines.
	type span struct {
		fn       string
		from, to int
	}
	spans := map[string][]span{}
	lines := map[string][]string{}
	for _, h := range hotLoops {
		if lines[h.file] == nil {
			src, err := os.ReadFile(h.file)
			if err != nil {
				t.Fatal(err)
			}
			lines[h.file] = strings.Split(string(src), "\n")
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, h.file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && funcName(fd) == h.fn {
				spans[h.file] = append(spans[h.file], span{h.fn, fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line})
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no function %s", h.file, h.fn)
		}
	}

	declared := map[string]bool{}
	for _, d := range declaredBoundsChecks {
		declared[d.fn+"\x00"+d.kind+"\x00"+d.line] = true
	}
	seen := map[string]bool{}
	report := regexp.MustCompile(`^(?:\./)?(\S+\.go):(\d+):\d+: Found (Is\w*InBounds)$`)
	for _, l := range strings.Split(string(out), "\n") {
		m := report.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		for _, s := range spans[m[1]] {
			if ln < s.from || ln > s.to {
				continue
			}
			text := strings.TrimSpace(lines[m[1]][ln-1])
			key := s.fn + "\x00" + m[3] + "\x00" + text
			if !declared[key] {
				t.Errorf("%s:%d: %s keeps an undeclared %s check in %q", m[1], ln, s.fn, m[3], text)
			}
			seen[key] = true
		}
	}
	for _, d := range declaredBoundsChecks {
		if !seen[d.fn+"\x00"+d.kind+"\x00"+d.line] {
			t.Logf("declared %s check in %s no longer reported (%q): the entry can go", d.kind, d.fn, d.line)
		}
	}
}

// funcName is a declaration's name, Recv.Name for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	return fmt.Sprint(typ) + "." + fd.Name.Name
}
