package serve

import (
	"context"
	"testing"
)

// BenchmarkRunCell runs one cold cell end to end: the first cold job of
// _perfbench's serve_mixed workload (test-tier EM3D, G-line barrier, 16
// cores, workload seed 1000001).
func BenchmarkRunCell(b *testing.B) {
	spec, err := ParseJobSpec("bench=EM3D barrier=GL cores=16 tier=test seed=1000001")
	if err != nil {
		b.Fatal(err)
	}
	cell := spec.Cells()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCell(context.Background(), cell); err != nil {
			b.Fatal(err)
		}
	}
}
