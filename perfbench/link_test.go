package main

import (
	"bytes"
	"io"
	"net"
	"slices"
	"syscall"
	"testing"
	"time"
)

// loopbackPair returns both ends of a loopback TCP connection.
func loopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.FailNow()
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestPacerRate checks that the paced link delivers at its configured
// rate and that it waits by sleeping, not spinning.
func TestPacerRate(t *testing.T) {
	const (
		bitsPerSec = 16e6 // 2 MB/s
		total      = 1 << 20
	)
	client, server := loopbackPair(t)
	drained := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, server)
		drained <- n
	}()
	st := &linkStats{}
	l := newLink(client, bitsPerSec, st, &env{})
	buf := make([]byte, 64<<10)
	cpu0, t0 := cpuNow(), time.Now()
	for sent := 0; sent < total; sent += len(buf) {
		if _, err := l.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	elapsed, cpu := time.Since(t0), cpuNow()-cpu0
	client.Close()
	if n := <-drained; n != total {
		t.Fatalf("reader got %d bytes, want %d", n, total)
	}
	rate := float64(total) * 8 / elapsed.Seconds()
	if rate < 0.95*bitsPerSec || rate > 1.05*bitsPerSec {
		t.Errorf("achieved %.3g bit/s, configured %.3g bit/s", rate, bitsPerSec)
	}
	if cpu > elapsed/4 {
		t.Errorf("pacing %v of traffic used %v of CPU: the pacer spins", elapsed, cpu)
	}
	if got := st.bytes.Load(); got != total {
		t.Errorf("link counted %d bytes, want %d", got, total)
	}
}

// TestCorruptingLinkFlipsOneBytePerPeriod checks the fault hook the
// benchmark's correctness test relies on.
func TestCorruptingLinkFlipsOneBytePerPeriod(t *testing.T) {
	client, server := loopbackPair(t)
	l := newLink(client, 0, &linkStats{}, &env{corruptEvery: 1000})
	sent := bytes.Repeat([]byte{7}, 4500)
	for off := 0; off < len(sent); off += 700 {
		if _, err := l.Write(sent[off:min(off+700, len(sent))]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(sent))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	var flipped []int
	for i := range got {
		if got[i] != sent[i] {
			flipped = append(flipped, i)
		}
	}
	if want := []int{1000, 2000, 3000, 4000}; !slices.Equal(flipped, want) {
		t.Errorf("flipped offsets %v, want %v", flipped, want)
	}
	if !bytes.Equal(sent, bytes.Repeat([]byte{7}, 4500)) {
		t.Error("the link modified the caller's buffer")
	}
}
