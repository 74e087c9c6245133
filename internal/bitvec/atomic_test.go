package bitvec

import (
	"math/bits"
	"sync"
	"testing"
)

func TestTestAndSetAtomic(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if !v.TestAndSetAtomic(i) {
			t.Fatalf("TestAndSetAtomic(%d) on clear bit = false", i)
		}
		if v.TestAndSetAtomic(i) {
			t.Fatalf("TestAndSetAtomic(%d) on set bit = true", i)
		}
		if !v.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := v.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

func TestWordOps(t *testing.T) {
	v := New(128)
	if v.Words() != 2 {
		t.Fatalf("Words = %d, want 2", v.Words())
	}
	if old := v.OrWord(0, 0b1011); old != 0 {
		t.Fatalf("OrWord old = %#x, want 0", old)
	}
	if old := v.OrWord(0, 0b0110); old != 0b1011 {
		t.Fatalf("OrWord old = %#x, want 0b1011", old)
	}
	if got := v.LoadWord(0); got != 0b1111 {
		t.Fatalf("LoadWord = %#x, want 0b1111", got)
	}
	v.OrWord(1, 1<<63)
	if !v.Test(127) {
		t.Fatal("OrWord(1, 1<<63) did not set bit 127")
	}
	if old := v.AndNotWord(0, 0b0101); old != 0b1111 {
		t.Fatalf("AndNotWord old = %#x, want 0b1111", old)
	}
	if got := v.LoadWord(0); got != 0b1010 {
		t.Fatalf("AndNotWord left %#x, want 0b1010", got)
	}
	v.OrWord(0, 0b0101)
	if got := v.TakeWord(0); got != 0b1111 {
		t.Fatalf("TakeWord = %#x, want 0b1111", got)
	}
	if got := v.LoadWord(0); got != 0 {
		t.Fatalf("word not cleared by TakeWord: %#x", got)
	}
	if got := v.TakeWord(1); got != 1<<63 {
		t.Fatalf("TakeWord(1) = %#x", got)
	}
}

// Concurrent claim: every bit is claimed by exactly one of the racing
// goroutines. Run with -race.
func TestTestAndSetAtomicConcurrent(t *testing.T) {
	const (
		bits    = 1 << 12
		workers = 8
	)
	v := New(bits)
	wins := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < bits; i++ {
				if v.TestAndSetAtomic(i) {
					wins[w] = append(wins[w], i)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, ws := range wins {
		total += len(ws)
	}
	if total != bits {
		t.Fatalf("claims = %d, want %d (each bit claimed exactly once)", total, bits)
	}
	if got := v.Count(); got != bits {
		t.Fatalf("Count = %d, want %d", got, bits)
	}
}

// Concurrent take-vs-or: whatever the setters set is seen by exactly one
// TakeWord, with no lost or duplicated bits. Every OR sets a bit no other OR
// sets (setter s owns bits [16s,16s+16) of every word and visits each of its
// 1024 (word, bit) pairs once), so a bit observed by two takes is a real
// duplicate, not a legitimate re-set. Run with -race.
func TestTakeWordConcurrent(t *testing.T) {
	const (
		words   = 64
		setters = 4
		perWord = 64 / setters
		ors     = words * perWord // per setter: each owned (word, bit) once
	)
	v := New(words * 64)
	var wg sync.WaitGroup
	taken := make([]uint64, words) // accumulated bits observed by the taker
	takenCount := 0
	stop := make(chan struct{})
	take := func(w int) {
		got := v.TakeWord(w)
		if taken[w]&got != 0 {
			t.Errorf("word %d: bits %#x taken twice", w, taken[w]&got)
		}
		taken[w] |= got
		takenCount += bits.OnesCount64(got)
	}
	wg.Add(1)
	go func() { // taker
		defer wg.Done()
		for {
			select {
			case <-stop:
				// Final sweep after all setters are done.
				for w := 0; w < words; w++ {
					take(w)
				}
				return
			default:
			}
			for w := 0; w < words; w++ {
				take(w)
			}
		}
	}()
	set := make([]uint64, words) // union of every setter's bits
	for s := 0; s < setters; s++ {
		for w := 0; w < words; w++ {
			set[w] |= uint64(1<<perWord-1) << (s * perWord)
		}
	}
	var swg sync.WaitGroup
	for s := 0; s < setters; s++ {
		swg.Add(1)
		go func(s int) {
			defer swg.Done()
			for r := 0; r < ors; r++ {
				w, b := r%words, s*perWord+r/words
				v.OrWord(w, 1<<uint(b))
			}
		}(s)
	}
	swg.Wait()
	close(stop)
	wg.Wait()
	for w := 0; w < words; w++ {
		if got := v.LoadWord(w); got != 0 {
			t.Fatalf("word %d still has bits %#x after final take", w, got)
		}
		if taken[w] != set[w] {
			t.Errorf("word %d: taken %#x, set %#x", w, taken[w], set[w])
		}
	}
	if want := setters * ors; takenCount != want {
		t.Errorf("taken popcount %d, want %d (one per OR)", takenCount, want)
	}
}
