package core

import "testing"

// FuzzBarrierSchedule feeds arbitrary byte strings interpreted as arrival
// schedules into a network and checks safety (nobody released before the
// last arrival) and liveness (everyone released exactly one barrier
// latency after it). The first byte picks the geometry: the flat 4x4
// network, or a clustered one. The rest gives one arrival cycle per core.
// Run with `go test -fuzz FuzzBarrierSchedule ./internal/core`.
func FuzzBarrierSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 7, 7, 7, 9, 0})
	f.Add([]byte{})
	f.Add([]byte{1, 4, 0, 9})
	f.Add([]byte{2, 3, 3, 0, 5})
	f.Add([]byte{3, 49, 1, 2})
	geoms := []struct {
		cols, rows, span int
		latency          uint64 // cycles from the last arrival to the release
	}{
		{4, 4, 0, 4},
		{8, 4, 0, 6},
		{6, 6, 3, 6},
		{16, 16, 0, 8},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		geo := geoms[0]
		if len(data) > 0 {
			geo = geoms[int(data[0])%len(geoms)]
			data = data[1:]
		}
		n := geo.cols * geo.rows
		net, err := NewNetwork(NetworkConfig{Cols: geo.cols, Rows: geo.rows, MaxTransmitters: 6, Contexts: 1, Span: geo.span})
		if err != nil {
			t.Fatal(err)
		}
		released := map[int]uint64{}
		var cycle uint64
		net.OnRelease(nil, func(c int) { released[c] = cycle })
		// Derive one arrival cycle per core from the fuzz input.
		arrivals := make([]uint64, n)
		var last uint64
		for c := 0; c < n; c++ {
			v := uint64(0)
			if len(data) > 0 {
				v = uint64(data[c%len(data)]) % 50
			}
			arrivals[c] = v
			if v > last {
				last = v
			}
		}
		for cycle <= last+geo.latency+4 {
			for c, at := range arrivals {
				if at == cycle {
					net.Arrive(c, 0)
				}
			}
			if len(released) != 0 && cycle < last {
				t.Fatalf("%dx%d: released %d cores before last arrival (%d < %d)", geo.cols, geo.rows, len(released), cycle, last)
			}
			net.Tick(cycle)
			cycle++
		}
		if len(released) != n {
			t.Fatalf("%dx%d: released %d/%d cores", geo.cols, geo.rows, len(released), n)
		}
		for c, cyc := range released {
			if cyc != last+geo.latency-1 {
				t.Fatalf("%dx%d: core %d released at %d, want %d", geo.cols, geo.rows, c, cyc, last+geo.latency-1)
			}
		}
	})
}
