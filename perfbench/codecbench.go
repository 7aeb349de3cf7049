package main

import (
	"runtime/metrics"
	"time"

	"adoc/internal/codec"
)

const (
	// codecBlock is the adaptation buffer size the engine compresses.
	codecBlock = 200 << 10
	// codecBytes is how much of the workload's data each codec figure
	// compresses; the sample repeats when the workload has less.
	codecBytes = 8 << 20
	// dictBlock is a mux-batch-sized block for the dictionary codec.
	dictBlock = 32 << 10
	// deflate6 is the AdOC level that runs DEFLATE level 6.
	deflate6 codec.Level = 7
)

// codecLayers measures the codec layer on the workload's own buffers by
// calling internal/codec's public functions: LZF and DEFLATE-6
// compression and inflate throughput on adaptation-buffer-sized blocks,
// and the cost of one dictionary-primed block.
func codecLayers(sample [][]byte, m map[string]float64) {
	blocks := splitBlocks(sample, codecBlock)
	if len(blocks) == 0 {
		return
	}
	m["codec.lzf_MBps"] = compressMBps(blocks, codec.LZF)
	m["codec.deflate6_MBps"] = compressMBps(blocks, deflate6)

	var packed [][]byte
	for _, b := range blocks {
		out, lvl, err := codec.Compress(deflate6, b)
		if err == nil && lvl == deflate6 {
			packed = append(packed, out)
		}
	}
	if len(packed) > 0 {
		n := 0
		t0 := time.Now()
		for n < codecBytes {
			for _, p := range packed {
				codec.Decompress(deflate6, p, codecBlock) // blocks from Compress always decode
				n += codecBlock
			}
		}
		m["codec.inflate_MBps"] = float64(n) / time.Since(t0).Seconds() / 1e6
	}

	small := splitBlocks(sample, dictBlock)
	if len(small) == 0 {
		return
	}
	trainer := codec.NewDictTrainer()
	for _, b := range small {
		trainer.Sample(b)
	}
	dict := trainer.Build()
	var scratch []byte
	count := 0
	a0 := allocObjects()
	t0 := time.Now()
	for n := 0; n < codecBytes/4; n += dictBlock {
		out, err := codec.CompressDict(scratch[:0], deflate6, small[count%len(small)], dict)
		if err == nil {
			scratch = out
		}
		count++
	}
	m["codec.dict_us_per_block"] = float64(time.Since(t0).Microseconds()) / float64(count)
	m["codec.dict_allocs_per_block"] = float64(allocObjects()-a0) / float64(count)
}

func compressMBps(blocks [][]byte, lvl codec.Level) float64 {
	var scratch []byte
	n := 0
	t0 := time.Now()
	for n < codecBytes {
		for _, b := range blocks {
			out, _, err := codec.CompressAppend(scratch[:0], lvl, b)
			if err == nil && len(out) > 0 && &out[0] != &b[0] {
				scratch = out
			}
			n += len(b)
		}
	}
	return float64(n) / time.Since(t0).Seconds() / 1e6
}

// splitBlocks cuts the sample into full blocks of size bytes.
func splitBlocks(sample [][]byte, size int) [][]byte {
	var out [][]byte
	for _, s := range sample {
		for len(s) >= size {
			out = append(out, s[:size])
			s = s[size:]
		}
	}
	return out
}

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
