package kernel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/topology"
)

func pair(t *testing.T) *core.Cluster {
	t.Helper()
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.New(topo, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMapRemoteAndSend(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	w, err := os.Kernel(0).MapRemote(1, 0, 64*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind() != RemoteWindow || w.Peer() != 1 {
		t.Fatalf("window kind=%v peer=%d", w.Kind(), w.Peer())
	}
	payload := bytes.Repeat([]byte{0xC3}, 128)
	var sent bool
	w.Write(PageSize, payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		sent = true
		w.Sync(func() {})
	})
	c.Run()
	if !sent {
		t.Fatal("write never completed")
	}
	got, err := c.Node(1).PeekMem(PageSize, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload mismatch at peer")
	}
	if os.Kernel(0).Mappings() != 1 {
		t.Errorf("mappings = %d, want 1", os.Kernel(0).Mappings())
	}
}

func TestMapRemoteValidation(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	k := os.Kernel(0)
	if _, err := k.MapRemote(1, 100, PageSize); err == nil {
		t.Error("unaligned offset accepted")
	}
	if _, err := k.MapRemote(1, 0, 100); err == nil {
		t.Error("unaligned size accepted")
	}
	if _, err := k.MapRemote(0, 0, PageSize); err == nil {
		t.Error("self-mapping accepted")
	}
	if _, err := k.MapRemote(7, 0, PageSize); err == nil {
		t.Error("nonexistent node accepted")
	}
}

func TestExportRestriction(t *testing.T) {
	c := pair(t)
	// Node 1 exports only its second page.
	os, err := InstallMixed(c, []Options{
		{SMCDisabled: true},
		{SMCDisabled: true, ExportLo: PageSize, ExportHi: 2 * PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := os.Kernel(0)
	if _, err := k.MapRemote(1, 0, PageSize); err == nil {
		t.Error("mapping below the export window accepted")
	}
	if _, err := k.MapRemote(1, PageSize, 2*PageSize); err == nil {
		t.Error("mapping past the export window accepted")
	}
	if _, err := k.MapRemote(1, PageSize, PageSize); err != nil {
		t.Errorf("mapping inside the export window denied: %v", err)
	}
}

func TestMapLocalRequiresUCWindow(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	k := os.Kernel(1)
	uc := c.Config().UCWindow
	if _, err := k.MapLocal(0, uc); err != nil {
		t.Errorf("UC-window mapping denied: %v", err)
	}
	_, err := k.MapLocal(uc, PageSize)
	if err == nil {
		t.Fatal("cachable receive buffer accepted")
	}
	if !strings.Contains(err.Error(), "UC receive window") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestLocalWindowReadSeesRemoteStore(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	send, err := os.Kernel(0).MapRemote(1, 0, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := os.Kernel(1).MapLocal(0, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	send.Write(0, []byte{0xAB, 1, 2, 3, 4, 5, 6, 7}, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		send.Sync(func() {})
	})
	c.Run()
	var got []byte
	recv.Read(0, 8, func(d []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = append([]byte(nil), d...)
	})
	c.Run()
	if len(got) != 8 || got[0] != 0xAB {
		t.Errorf("local read = %v", got)
	}
}

func TestRemoteWindowReadRefused(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	w, err := os.Kernel(0).MapRemote(1, 0, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var got error
	w.Read(0, 8, func(_ []byte, err error) { got = err })
	c.Run()
	if !errors.Is(got, cpu.ErrStranded) {
		t.Errorf("remote read err = %v, want ErrStranded", got)
	}
}

func TestWindowBounds(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	w, _ := os.Kernel(0).MapRemote(1, 0, PageSize)
	called := false
	w.Write(PageSize-4, make([]byte, 8), func(err error) {
		called = true
		if err == nil {
			t.Error("out-of-window write accepted")
		}
	})
	if !called {
		t.Error("no synchronous bounds rejection")
	}
}

// The custom kernel (SMC disabled) keeps interrupts on the local board;
// a stock kernel floods them across the TCCluster link (§VI).
func TestSMCSuppressionIsLoadBearing(t *testing.T) {
	c := pair(t)
	os, err := InstallMixed(c, []Options{
		{SMCDisabled: false}, // stock kernel on node 0
		{SMCDisabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	os.Kernel(0).RaiseSMC(0xFEE0_0000)
	c.Run()
	if got := os.Kernel(1).Interrupts(); got == 0 {
		t.Error("stock kernel's SMC did not leak to the peer — the custom kernel would be pointless")
	}

	before := os.Kernel(0).Interrupts()
	os.Kernel(1).RaiseSMC(0xFEE0_0000)
	c.Run()
	if os.Kernel(0).Interrupts() != before {
		t.Error("custom kernel leaked an SMC broadcast")
	}
	if os.Kernel(1).SuppressedSMCs() != 1 {
		t.Errorf("suppressed = %d, want 1", os.Kernel(1).SuppressedSMCs())
	}
}

func TestAllocUC(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	k := os.Kernel(0)
	off1, err := k.AllocUC(100) // rounds to one page
	if err != nil {
		t.Fatal(err)
	}
	off2, err := k.AllocUC(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 || off2 != PageSize {
		t.Errorf("allocations at %#x, %#x", off1, off2)
	}
	if _, err := k.AllocUC(c.Config().UCWindow); err == nil {
		t.Error("over-allocation of the UC window accepted")
	}
}

func TestUCAccounting(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	k := os.Kernel(0)
	if k.UCUsed() != 0 {
		t.Fatalf("fresh UCUsed = %d", k.UCUsed())
	}
	if k.UCCapacity() != c.Config().UCWindow {
		t.Fatalf("UCCapacity = %d", k.UCCapacity())
	}
	if _, err := k.AllocUC(100); err != nil {
		t.Fatal(err)
	}
	if k.UCUsed() != PageSize {
		t.Fatalf("UCUsed = %d after one page", k.UCUsed())
	}
}

func TestWindowClose(t *testing.T) {
	c := pair(t)
	os := Install(c, Options{SMCDisabled: true})
	w, err := os.Kernel(0).MapRemote(1, 0, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if os.Kernel(0).Mappings() != 1 {
		t.Fatal("mapping not counted")
	}
	w.Close()
	if os.Kernel(0).Mappings() != 0 {
		t.Error("close did not release the mapping count")
	}
	w.Write(0, []byte{1, 2, 3, 4}, func(err error) {
		if err == nil {
			t.Error("write through a closed window accepted")
		}
	})
	w.Close() // double close is a no-op
	if os.Kernel(0).Mappings() != 0 {
		t.Error("double close double-counted")
	}
}
