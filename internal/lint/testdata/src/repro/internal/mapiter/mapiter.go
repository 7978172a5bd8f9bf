package mapiter

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/netapi"
	"repro/internal/sim"
)

// WakeAll is the PR 1 wakeup-bug shape: failure paths woke blocked
// tasks by ranging a map, so wake order — and therefore event order —
// depended on map hashing.
func WakeAll(w *sim.World, waiting map[string]func()) {
	for _, fn := range waiting {
		w.Go(fn) // want `World\.Go inside map iteration schedules simulation work`
	}
}

func TimerFanout(w *sim.World, deadlines map[string]func()) {
	for _, fn := range deadlines {
		w.AfterFunc(0, fn) // want `World\.AfterFunc inside map iteration schedules simulation work`
	}
}

func AppendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside map iteration without a later sort`
	}
	return keys
}

// CollectThenSort is the sanctioned idiom: the append is fine because
// the slice is sorted before anything observes its order.
func CollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func PrintUnsorted(m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(os.Stderr, "%s=%d\n", k, v) // want `fmt\.Fprintf inside map iteration writes output`
	}
}

func BuildUnsorted(m map[string]int) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k) // want `Builder\.WriteString inside map iteration emits output`
	}
	return sb.String()
}

// Order-independent bodies are not flagged: aggregation, writes into
// another map, deletes, and per-iteration locals.
func SumOK(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func InvertOK(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func PerIterationLocalOK(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var evens []int
		for _, v := range vs {
			if v%2 == 0 {
				evens = append(evens, v)
			}
		}
		n += len(evens)
	}
	return n
}

func AllowedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //simlint:allow maporder single caller sorts the slice after merging shards
	}
	return keys
}

// FailPendingUnsorted is the racing/dox pending-map shape seen through
// the backend seam: failing futures in map order wakes tasks in map
// order, exactly like the sim.World case above.
func FailPendingUnsorted(pending map[uint16]*netapi.Future[int]) {
	for _, f := range pending {
		f.Fail() // want `Future\.Fail inside map iteration schedules or wakes backend work`
	}
}

func SpawnThroughSeam(rt netapi.Runtime, waiting map[string]func()) {
	for _, fn := range waiting {
		rt.Go(fn) // want `Runtime\.Go inside map iteration schedules or wakes backend work`
	}
}

// FailPendingSorted is the sanctioned idiom (dox demux.failAll): wake in
// ascending key order.
func FailPendingSorted(pending map[uint16]*netapi.Future[int]) {
	keys := make([]uint16, 0, len(pending))
	for id := range pending {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, id := range keys {
		pending[id].Fail()
	}
}
