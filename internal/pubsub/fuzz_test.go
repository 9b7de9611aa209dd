package pubsub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
)

// FuzzReadHandshake feeds arbitrary bytes to the subscriber handshake
// parser. The parser must never panic, must bound the channel count, and
// any successfully parsed handshake must round-trip through
// writeHandshakeOpts. The retired forms (first-byte-count, older
// versions) stay in the corpus: they must error, not parse.
func FuzzReadHandshake(f *testing.F) {
	// Modern handshake produced by the real writer.
	var modern bytes.Buffer
	if err := writeHandshakeOpts(&modern, []string{"sysprof.interactions", "sysprof.aggregates"},
		core.ShardSelector{}, false); err != nil {
		f.Fatal(err)
	}
	f.Add(modern.Bytes())

	// Sharded, compressed subscription (shard 2 of 8).
	var sharded bytes.Buffer
	if err := writeHandshakeOpts(&sharded, []string{"sysprof.interactions"},
		core.ShardSelector{Index: 2, Count: 8}, true); err != nil {
		f.Fatal(err)
	}
	f.Add(sharded.Bytes())

	// Retired v0 form: first byte is the channel count, then 4-byte
	// little-endian length-prefixed names.
	legacy := []byte{1}
	legacy = binary.LittleEndian.AppendUint32(legacy, 4)
	legacy = append(legacy, "chan"...)
	f.Add(legacy)

	// Edges: huge declared channel count, huge string length, empty.
	f.Add([]byte{handshakeMagic, handshakeVersion, 0, 0, 0xFF, 0xFF})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	// Retired versions and unknown capability bits.
	f.Add([]byte{handshakeMagic, 1, 0, 0, 0, 0})
	f.Add([]byte{handshakeMagic, 2, 0x05, 0, 0, 0})
	f.Add([]byte{handshakeMagic, handshakeVersion, 0x04, 0, 0, 0})
	f.Add([]byte{handshakeMagic, handshakeVersion, 0, 0x80, 0, 0})

	// Length boundaries. Channel count around
	// maxHandshakeChannels (cap-1, cap, cap+1, uint16 max): exactly the
	// cap must parse, one over must be rejected before the per-channel
	// loop allocates anything.
	capHdr := func(count uint16) []byte {
		b := []byte{handshakeMagic, handshakeVersion, 0, 0}
		return binary.LittleEndian.AppendUint16(b, count)
	}
	full := capHdr(maxHandshakeChannels)
	for i := 0; i < maxHandshakeChannels; i++ {
		full = binary.LittleEndian.AppendUint32(full, 0) // empty name
	}
	f.Add(full)
	f.Add(capHdr(maxHandshakeChannels - 1))
	f.Add(capHdr(maxHandshakeChannels + 1))
	f.Add(capHdr(0xFFFF))

	// String length around the 1<<20 cap: at-cap costs memory only as
	// bytes actually arrive (chunked reads), one over is rejected before
	// any allocation.
	atCap := binary.LittleEndian.AppendUint32(capHdr(1), 1<<20)
	f.Add(append(atCap, make([]byte, 4096)...)) // truncated body
	f.Add(binary.LittleEndian.AppendUint32(capHdr(1), 1<<20-1))
	f.Add(binary.LittleEndian.AppendUint32(capHdr(1), 1<<20+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		hs, err := readHandshake(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(hs.channels) > maxHandshakeChannels {
			t.Fatalf("parsed %d channels, limit is %d", len(hs.channels), maxHandshakeChannels)
		}
		if hs.sel.Count != 0 && !hs.sel.Valid() {
			t.Fatalf("parsed invalid shard selector %d/%d", hs.sel.Index, hs.sel.Count)
		}
		var out bytes.Buffer
		if err := writeHandshakeOpts(&out, hs.channels, hs.sel, hs.columnsZ); err != nil {
			t.Fatalf("re-encode parsed handshake: %v", err)
		}
		hs2, err := readHandshake(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse written handshake: %v", err)
		}
		if hs2.sel != hs.sel || hs2.columnsZ != hs.columnsZ {
			t.Fatalf("round trip changed the negotiated options: %v/%v != %v/%v",
				hs2.sel, hs2.columnsZ, hs.sel, hs.columnsZ)
		}
		if len(hs2.channels) != len(hs.channels) {
			t.Fatalf("round trip changed channel count: %d != %d", len(hs2.channels), len(hs.channels))
		}
		for i := range hs.channels {
			if hs2.channels[i] != hs.channels[i] {
				t.Fatalf("round trip changed channel %d: %q != %q", i, hs2.channels[i], hs.channels[i])
			}
		}
	})
}

// FuzzSubscriberRecv feeds arbitrary bytes to a Subscriber's Recv from the
// broker side of a net.Pipe: the channel header and the frame after it are
// untrusted. Recv must never panic, every successful Recv consumes at
// least one byte, and a header declaring more than maxStringLen bytes is
// refused, before anything of that size is allocated.
func FuzzSubscriberRecv(f *testing.F) {
	reg := newReg(f)
	stream := wireStream(f, reg, "interactions", recvRows(0, 3), recvRows(10, 2))
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	metrics := appendString(nil, "m")
	plan, cols := pbio.StructColumns(reg, []metric{{Name: "a", Value: 1}})
	metrics, _, err := plan.AppendCompressedColumnsFrame(plan.Format().AppendDef(metrics), cols)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(metrics)
	f.Add([]byte{})
	for _, n := range []uint32{maxStringLen - 1, maxStringLen, maxStringLen + 1, 1<<32 - 1} {
		f.Add(binary.LittleEndian.AppendUint32(nil, n))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		broker, conn := net.Pipe()
		sub := newSubscriber(conn, reg)
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			broker.Write(data) // fails once the subscriber is closed
			broker.Close()
		}()
		defer func() {
			sub.Close()
			<-wrote
		}()

		var before runtime.MemStats
		oversize := len(data) >= 4 && binary.LittleEndian.Uint32(data) > maxStringLen
		if oversize {
			runtime.ReadMemStats(&before)
		}
		for i := 0; ; i++ {
			if i > len(data) {
				t.Fatalf("%d Recv calls succeeded on %d bytes of input", i, len(data))
			}
			_, _, err := sub.Recv()
			if err == nil {
				continue
			}
			if oversize && i == 0 {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				if !errors.Is(err, pbio.ErrBadFrame) {
					t.Fatalf("a header of %d bytes: err = %v, want a refusal", binary.LittleEndian.Uint32(data), err)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxStringLen {
					t.Fatalf("refusing a header of %d bytes allocated %d bytes", binary.LittleEndian.Uint32(data), grew)
				}
			}
			return
		}
	})
}
