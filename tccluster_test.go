package tccluster_test

import (
	"fmt"
	"slices"
	"testing"

	tccluster "repro"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	topo, err := tccluster.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, r, err := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.Recv(func(d []byte, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = d
	})
	s.Send([]byte("public api"), func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
	})
	c.Run()
	if string(got) != "public api" {
		t.Errorf("got %q", got)
	}
	if c.Now() == 0 {
		t.Error("virtual time did not advance")
	}
}

func TestPublicAPIMPIAndPGAS(t *testing.T) {
	topo, err := tccluster.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]float64, 3)
	for rk := 0; rk < 3; rk++ {
		rk := rk
		w.Rank(rk).Allreduce([]float64{float64(rk + 1)}, tccluster.Sum, func(v []float64, err error) {
			if err != nil {
				t.Errorf("allreduce: %v", err)
			}
			results[rk] = slices.Clone(v) // v is borrowed until the callback returns
		})
	}
	c.Run()
	for rk := 0; rk < 3; rk++ {
		if len(results[rk]) != 1 || results[rk][0] != 6 {
			t.Errorf("rank %d allreduce = %v", rk, results[rk])
		}
	}

	sp, err := c.NewSpace(tccluster.DefaultPGASConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp.PutStrict(0, sp.Size()-8, []byte{1, 2, 3, 4, 5, 6, 7, 8}, func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
	})
	c.Run()
	var got []byte
	sp.Get(2, sp.Size()-8, 8, func(d []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = d
	})
	c.Run()
	if len(got) != 8 || got[0] != 1 {
		t.Errorf("pgas got %v", got)
	}
}

// Example demonstrates the quickstart from the package documentation.
func Example() {
	topo, _ := tccluster.Chain(2)
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	if err != nil {
		panic(err)
	}
	s, r, _ := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
	r.Recv(func(data []byte, err error) { fmt.Printf("%s\n", data) })
	s.Send([]byte("hello over the host interface"), func(error) {})
	c.Run()
	// Output: hello over the host interface
}
