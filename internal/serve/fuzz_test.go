package serve

import (
	"strconv"
	"strings"
	"testing"

	"yhccl/internal/topo"
)

// fuzzOracle is a cheap deterministic service time that still slows a job
// down with every co-tenant rank on its sockets.
func fuzzOracle(spec JobSpec, perSocket, ext []int) float64 {
	co := 0
	for _, e := range ext {
		co += e
	}
	return 1e-4 * float64(spec.Calls*spec.Ranks) * (1 + float64(co)/16)
}

// fuzzLoad decodes a stream config and a sorted capacity-event list. The
// overload mix's dnn-storm class takes 2 to 64 ranks, so some draws can
// only fit a whole machine; each 4-byte event record is a time step (in
// 1/64ths of the arrival window), a remove/add choice, a first core and a
// run length of up to 16 cores.
func fuzzLoad(node *topo.Node, seed uint64, jobs, budget, wide uint8, rate uint16, evs []byte) (StreamConfig, []Arrival, []CapacityEvent, error) {
	mix := OverloadMix()
	mix[0].Ranks = 2 + int(wide)%(node.Cores()-1)
	cfg := StreamConfig{
		Seed:        seed,
		Mix:         mix,
		Jobs:        1 + int(jobs)%96,
		Rate:        1 + float64(rate),
		QueueBudget: int(budget) % 24,
	}
	arrivals, err := GenStream(cfg)
	if err != nil {
		return cfg, nil, nil, err
	}
	span := arrivals[len(arrivals)-1].At
	var events []CapacityEvent
	at := 0.0
	for i := 0; i+4 <= len(evs) && len(events) < 32; i += 4 {
		at += span * float64(evs[i]) / 64
		cores := make([]int, 1+int(evs[i+3])%16)
		for k := range cores {
			cores[k] = (int(evs[i+2]) + k) % node.Cores()
		}
		ev := CapacityEvent{At: at}
		if evs[i+1]%2 == 0 {
			ev.Remove = cores
		} else {
			ev.Add = cores
		}
		events = append(events, ev)
	}
	return cfg, arrivals, events, nil
}

// logInt returns the integer value of the key=value field named key.
func logInt(t *testing.T, fields []string, key string) int {
	t.Helper()
	for _, f := range fields {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("field %s: %v", f, err)
			}
			return n
		}
	}
	t.Fatalf("no %s= field in %q", key, strings.Join(fields, " "))
	return 0
}

// checkServeLog replays an event log: after every event the leased cores
// fit the online ones (capacity plus cores still draining), and an
// admitted job is completed exactly once and never shed. It returns the
// admitted job ids.
func checkServeLog(t *testing.T, node *topo.Node, log []string) map[int]bool {
	t.Helper()
	ranks := map[int]int{}
	state := map[int]string{}
	leased, capacity, draining := 0, node.Cores(), 0
	for _, line := range log {
		fields := strings.Fields(line)
		kind := fields[1]
		switch kind {
		case "arrive":
			ranks[logInt(t, fields, "job")] = logInt(t, fields, "ranks")
		case "admit", "shed", "complete":
			id := logInt(t, fields, "job")
			if prev := state[id]; prev != "" && !(prev == "admit" && kind == "complete") {
				t.Fatalf("job %d: %s after %s: %s", id, kind, prev, line)
			}
			state[id] = kind
			switch kind {
			case "admit":
				leased += ranks[id]
			case "complete":
				leased -= ranks[id]
			}
		case "retire":
			// The retiring lease's completion is the next line.
			_, list, _ := strings.Cut(line, "cores=[")
			list, _, _ = strings.Cut(list, "]")
			draining -= len(strings.Fields(list))
			capacity = logInt(t, fields, "online")
			continue
		case "capacity":
			capacity = logInt(t, fields, "online")
			draining = logInt(t, fields, "draining")
		}
		if leased > capacity+draining {
			t.Fatalf("%d cores leased, %d online: %s", leased, capacity+draining, line)
		}
	}
	admitted := map[int]bool{}
	for id, s := range state {
		switch s {
		case "admit":
			t.Fatalf("admitted job %d never completed", id)
		case "complete":
			admitted[id] = true
		}
	}
	return admitted
}

// FuzzServeStream drives the scheduler with decoded arrival streams and
// capacity churn under an oracle service time and checks its contract:
// leased cores never exceed online cores, an admitted job is never shed
// or dropped, every arrival gets exactly one result, and two runs agree
// byte for byte.
func FuzzServeStream(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(4), uint8(6), uint16(2400), []byte{16, 0, 56, 7, 16, 1, 56, 7})
	f.Add(uint64(7), uint8(90), uint8(0), uint8(62), uint16(800), []byte{8, 0, 0, 15, 4, 0, 40, 15, 20, 1, 0, 15})
	node := topo.NodeA()
	f.Fuzz(func(t *testing.T, seed uint64, jobs, budget, wide uint8, rate uint16, evs []byte) {
		cfg, arrivals, events, err := fuzzLoad(node, seed, jobs, budget, wide, rate, evs)
		if err != nil {
			t.Skip(err)
		}
		run := func() (*Scheduler, []JobResult) {
			s := NewScheduler(node, PlaceAuto)
			s.SetServiceOracle(fuzzOracle)
			s.SetQueueBudget(cfg.QueueBudget)
			results, err := s.RunWithEvents(arrivals, events)
			if err != nil {
				t.Fatal(err)
			}
			return s, results
		}
		s, results := run()
		admitted := checkServeLog(t, node, s.EventLog())
		seen := make([]bool, len(arrivals))
		for _, r := range results {
			if r.ID < 0 || r.ID >= len(arrivals) || seen[r.ID] {
				t.Fatalf("result for job %d duplicated or out of range", r.ID)
			}
			seen[r.ID] = true
			if r.Shed == admitted[r.ID] {
				t.Fatalf("job %d: admitted=%v but result shed=%v", r.ID, admitted[r.ID], r.Shed)
			}
		}
		if len(results) != len(arrivals) {
			t.Fatalf("%d results for %d arrivals", len(results), len(arrivals))
		}
		// At the end of the stream every core is free or offline, never both.
		owner := make([]string, node.Cores())
		for _, free := range s.freeBySocket {
			for _, c := range free {
				owner[c] += "free"
			}
		}
		for c := range s.offline {
			owner[c] += "offline"
		}
		for c, o := range owner {
			if o != "free" && o != "offline" {
				t.Fatalf("core %d ends the stream %q", c, o)
			}
		}
		again, _ := run()
		if a, b := strings.Join(s.EventLog(), "\n"), strings.Join(again.EventLog(), "\n"); a != b {
			t.Fatalf("two runs diverge:\n%s\n---\n%s", a, b)
		}
	})
}
