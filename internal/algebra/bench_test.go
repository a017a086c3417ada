package algebra

// Microbenchmarks contrasting the columnar vectorized operators with
// the seed's row-store implementations (rowref.go) on the shapes the
// loop-lifting compiler actually produces: an iter-keyed variable ⋈
// mapping-table join, the (iter, pos) ρ renumbering of mapBack, and a
// boolean σ. Run with `make bench-smoke` (compile check) or
// `go test -bench BenchmarkAlgebra -benchtime 20x ./internal/algebra`.

import (
	"testing"
)

const benchRows = 4096

func BenchmarkAlgebraJoin(b *testing.B) {
	mapTbl, varTbl := BenchJoinInput(benchRows)
	rm, rv := mapTbl.RowStore(), varTbl.RowStore()
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if Join(mapTbl, varTbl, "outer", ColIter).Len() == 0 {
				b.Fatal("empty join")
			}
		}
	})
	b.Run("rowstore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if RowJoin(rm, rv, "outer", ColIter).Len() == 0 {
				b.Fatal("empty join")
			}
		}
	})
}

func BenchmarkAlgebraRowNum(b *testing.B) {
	t := BenchSeqInput(benchRows)
	rt := t.RowStore()
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if RowNum(t, "n", []string{ColIter, ColPos}, "").Len() != benchRows {
				b.Fatal("bad rownum")
			}
		}
	})
	b.Run("rowstore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if RowRowNum(rt, "n", []string{ColIter, ColPos}, "").Len() != benchRows {
				b.Fatal("bad rownum")
			}
		}
	})
}

func BenchmarkAlgebraSelect(b *testing.B) {
	t := BenchBoolInput(benchRows)
	rt := t.RowStore()
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if Select(t, "b").Len() == 0 {
				b.Fatal("empty select")
			}
		}
	})
	b.Run("rowstore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if RowSelect(rt, "b").Len() == 0 {
				b.Fatal("empty select")
			}
		}
	})
}

func BenchmarkAlgebraSort(b *testing.B) {
	t := BenchSeqInput(benchRows)
	rt := t.RowStore()
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if SortBy(t, ColIter, ColPos).Len() != benchRows {
				b.Fatal("bad sort")
			}
		}
	})
	b.Run("rowstore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if RowSortBy(rt, ColIter, ColPos).Len() != benchRows {
				b.Fatal("bad sort")
			}
		}
	})
}
