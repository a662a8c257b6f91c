package southbridge

import (
	"bytes"
	"testing"

	"repro/internal/ht"
	"repro/internal/sim"
)

func device(t *testing.T, image []byte) (*sim.Engine, *ht.Link, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	l := ht.NewLink(eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassIODevice))
	l.ColdReset()
	eng.Run()
	d, err := New(eng, image, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d.AttachTo(l.B())
	return eng, l, d
}

func TestROMReadRoundTrip(t *testing.T) {
	image := make([]byte, 256)
	for i := range image {
		image[i] = byte(i ^ 0xA5)
	}
	eng, l, d := device(t, image)

	var got []byte
	l.A().SetSink(func(p *ht.Packet, done func()) {
		if p.Cmd == ht.CmdRdResp {
			got = p.Data
		}
		done()
	})
	rd, err := ht.NewRead(ROMBase+64, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	rd.SrcNode = 7
	if err := l.A().Send(rd); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(got, image[64:128]) {
		t.Fatalf("ROM read returned %v", got[:8])
	}
	if d.Reads() != 1 {
		t.Errorf("reads = %d", d.Reads())
	}
}

func TestROMReadLatencyIsFlashBound(t *testing.T) {
	eng, l, _ := device(t, make([]byte, 4096))
	var at sim.Time
	l.A().SetSink(func(p *ht.Packet, done func()) {
		at = eng.Now()
		done()
	})
	rd, _ := ht.NewRead(ROMBase, 64, 1)
	start := eng.Now()
	_ = l.A().Send(rd)
	eng.Run()
	if lat := at - start; lat < DefaultParams().ROMAccess {
		t.Errorf("ROM read completed in %v, below the %v flash access time", lat, DefaultParams().ROMAccess)
	}
}

func TestOutOfWindowReadAborts(t *testing.T) {
	eng, l, d := device(t, make([]byte, 64))
	responded := false
	l.A().SetSink(func(p *ht.Packet, done func()) {
		responded = true
		done()
	})
	rd, _ := ht.NewRead(ROMBase-64, 64, 2) // below the window
	_ = l.A().Send(rd)
	eng.Run()
	if responded {
		t.Error("out-of-window read got a response")
	}
	if d.Reads() != 0 {
		t.Errorf("reads = %d", d.Reads())
	}
}

func TestWritesAbsorbed(t *testing.T) {
	eng, l, _ := device(t, make([]byte, 64))
	w, _ := ht.NewPostedWrite(ROMBase, []byte{1, 2, 3, 4})
	if err := l.A().Send(w); err != nil {
		t.Fatal(err)
	}
	eng.Run() // must quiesce without faults
}

func TestOversizedImageRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, make([]byte, ROMWindow+1), DefaultParams()); err == nil {
		t.Error("oversized flash image accepted")
	}
}

// TestReadsPastImageReturnZeros: the window is 64 KB whatever the image
// size; a read straddling the image's end returns its tail then zeros,
// one past it only zeros, and reads leaving the window still abort.
func TestReadsPastImageReturnZeros(t *testing.T) {
	image := make([]byte, 96)
	for i := range image {
		image[i] = byte(i + 1)
	}
	eng, l, d := device(t, image)
	var got [][]byte
	l.A().SetSink(func(p *ht.Packet, done func()) {
		got = append(got, append([]byte(nil), p.Data...))
		done()
		p.Release()
	})
	for _, addr := range []uint64{
		ROMBase + 64,             // straddles the image's end
		ROMBase + 4096,           // past the image
		ROMBase + ROMWindow - 64, // the window's last line
		ROMBase + ROMWindow - 32, // runs off the window: abort
		ROMBase + ROMWindow,      // above the window: abort
		ROMBase - 4,              // below the window: abort
	} {
		rd, err := ht.NewRead(addr, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.A().Send(rd); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	want := [][]byte{
		append(append([]byte(nil), image[64:]...), make([]byte, 32)...),
		make([]byte, 64),
		make([]byte, 64),
	}
	if len(got) != len(want) || d.Reads() != uint64(len(want)) {
		t.Fatalf("%d responses, %d reads served, want %d in-window reads answered", len(got), d.Reads(), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("read %d returned %v, want %v", i, got[i], want[i])
		}
	}
}
