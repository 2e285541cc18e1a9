package workload_test

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkWorkloadBuild times regenerating each registry default from
// its spec: generator RNG, program emission, label resolution and
// validation. It is the per-point workload cost of every figure replay
// and scenariod request.
func BenchmarkWorkloadBuild(b *testing.B) {
	for _, kind := range workload.Kinds() {
		spec, err := workload.DefaultSpec(kind)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spec.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
