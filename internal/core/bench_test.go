package core

import (
	"fmt"
	"io"
	"net"
	"testing"

	"adoc/internal/codec"
	"adoc/internal/datagen"
)

// BenchmarkPipelineEndToEnd measures both pipelines together at a pinned
// DEFLATE level: one engine compresses and sends, its peer receives and
// decodes, over an in-memory pipe, at windows 1, 2 and 4. Pinning the
// level takes the controller out, so only the pipeline mechanism differs
// between the windows.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	data := datagen.ByKind(datagen.KindASCII, 4<<20, 1)
	for _, window := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P%d", window), func(b *testing.B) {
			o := DefaultOptions()
			o.Parallelism = window
			o.DisableProbe = true
			c1, c2 := net.Pipe()
			e1, err := New(c1, o)
			if err != nil {
				b.Fatal(err)
			}
			e2, err := New(c2, o)
			if err != nil {
				b.Fatal(err)
			}
			defer e1.Close()
			defer e2.Close()
			done := make(chan error, 1)
			go func() {
				sink := make([]byte, len(data))
				for i := 0; i < b.N; i++ {
					if _, err := io.ReadFull(e2, sink); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e1.WriteMessageLevels(data, codec.Level(6), codec.Level(6)); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}
