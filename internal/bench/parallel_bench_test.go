package bench

import (
	"context"
	"testing"

	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
)

// BenchmarkSynthesizeAll measures end-to-end synthesis (match →
// combine → validate) sequentially and through the worker pool, with
// the match cache disabled so every iteration pays the full endpoint
// cost.
func BenchmarkSynthesizeAll(b *testing.B) {
	d, err := Prepare(datagen.EurostatLike(2000))
	if err != nil {
		b.Fatal(err)
	}
	examples := d.SampleExamples(7, []int{2}, 1)[2]
	if len(examples) == 0 {
		b.Fatal("no example sampled")
	}
	tuple := core.Keywords(examples[0]...)
	run := func(b *testing.B, workers int) {
		e := core.NewEngine(d.Engine.Client, d.Graph, d.Spec.Config())
		e.DisableMatchCache = true
		e.Workers = workers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.SynthesizeAll(context.Background(), []core.ExampleTuple{tuple}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq", func(b *testing.B) { run(b, 1) })
	b.Run("par", func(b *testing.B) { run(b, 0) })
}
