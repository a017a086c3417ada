package algebra

// Benchmark input builders shared by the package microbenchmarks
// (bench_test.go) and the `xrpcbench -table algebra` experiment
// (internal/bench), so the two always measure the same shapes.

import (
	"fmt"

	"xrpc/internal/xdm"
)

// BenchJoinInput builds the innerScope shape: a mapping table
// inner|outer of n rows and a variable table iter|pos|item aligned to
// the outer loop of n/4 iterations — the join every for-clause performs
// per live variable.
func BenchJoinInput(n int) (mapTbl, varTbl *Table) {
	outer := n / 4
	if outer < 1 {
		outer = 1
	}
	mapTbl = NewTable("inner", "outer")
	for k := 1; k <= n; k++ {
		mapTbl.Append(xdm.Integer(int64(k)), xdm.Integer(int64((k-1)%outer+1)))
	}
	varTbl = NewTable(ColIter, ColPos, ColItem)
	for it := 1; it <= outer; it++ {
		for p := 1; p <= 4; p++ {
			varTbl.AppendSeq(int64(it), int64(p), xdm.String(fmt.Sprintf("item-%d-%d", it, p)))
		}
	}
	return mapTbl, varTbl
}

// BenchSeqInput builds an n-row iter|pos|item table with deliberately
// unsorted iters so ρ and sorts do real work.
func BenchSeqInput(n int) *Table {
	t := NewTable(ColIter, ColPos, ColItem)
	for r := 0; r < n; r++ {
		t.AppendSeq(int64(n-r), int64(r%7+1), xdm.String("v"))
	}
	return t
}

// BenchBoolInput builds an n-row table with a boolean selection column
// (every third row true).
func BenchBoolInput(n int) *Table {
	t := NewTable(ColIter, "b")
	for r := 0; r < n; r++ {
		t.Append(xdm.Integer(int64(r)), xdm.Boolean(r%3 == 0))
	}
	return t
}
