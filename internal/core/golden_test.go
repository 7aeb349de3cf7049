package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"adoc/internal/codec"
)

// goldenWireSHA256 is the SHA-256 of the byte stream goldenWire writes.
// Any change to framing, packet cutting, level choice under forced
// bounds, the dictionary or entropy-bypass groups, or the probe and
// fast-link bypass shows up as a different digest.
const goldenWireSHA256 = "ed9e453983697bb7f682f37d0f9a4ebe8e67df338b0cbc64e9414d1774d58c00"

// goldenWire sends a fixed message sequence through one engine at the
// given in-flight window and returns every byte it wrote to the socket.
func goldenWire(t *testing.T, window int) []byte {
	t.Helper()
	o := smallPipelineOptions()
	o.Parallelism = window
	o.DisableProbe = false
	o.ProbeSize = 2 * 1024
	o.FastCutoffBps = 1 // any measurable link is "fast": the probe always bypasses
	var captured bytes.Buffer
	e, err := New(&rawConn{Reader: bytes.NewReader(nil), w: &captured}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	text := compressibleData(40 * 1024)
	forced := func(p []byte, level codec.Level) {
		t.Helper()
		if _, err := e.WriteMessageLevels(p, level, level); err != nil {
			t.Fatalf("window %d level %d: %v", window, level, err)
		}
	}
	forced(text, 0)
	forced(text, 1)
	forced(text, 3)
	e.SetSendDict(7, compressibleData(2048))
	forced(text, 3) // dict groups
	e.SetSendDict(0, nil)
	forced(incompressibleData(40*1024, 5), 3) // entropy bypass ships raw groups
	// Probe, then the fast-link bypass.
	if _, err := e.WriteMessage(text); err != nil {
		t.Fatalf("window %d probe message: %v", window, err)
	}
	if _, err := e.WriteMessage(text[:1000]); err != nil { // small path
		t.Fatalf("window %d small message: %v", window, err)
	}
	if s := e.Stats(); s.ProbeBypasses != 2 || s.Controller.EntropyBypasses == 0 {
		t.Fatalf("window %d: %d probe bypasses (want 2: level 0 and the probe message), %d entropy bypasses (want > 0)",
			window, s.ProbeBypasses, s.Controller.EntropyBypasses)
	}
	return captured.Bytes()
}

// TestGoldenWire pins the wire format: the same message sequence at
// windows 1, 2 and 4 must produce byte-identical streams, equal to the
// recorded digest.
func TestGoldenWire(t *testing.T) {
	want := goldenWire(t, 1)
	for _, window := range []int{2, 4} {
		if got := goldenWire(t, window); !bytes.Equal(got, want) {
			t.Fatalf("window %d wrote %d bytes that differ from window 1's %d", window, len(got), len(want))
		}
	}
	sum := sha256.Sum256(want)
	if got := hex.EncodeToString(sum[:]); got != goldenWireSHA256 {
		t.Fatalf("wire SHA-256 = %s, want %s (%d bytes)", got, goldenWireSHA256, len(want))
	}
}
