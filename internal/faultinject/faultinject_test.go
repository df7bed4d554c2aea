package faultinject

import (
	"errors"
	"sync"
	"testing"
)

func TestDisabledIsNil(t *testing.T) {
	Clear()
	if err := Inject(BFSStep); err != nil {
		t.Fatalf("disabled Inject returned %v", err)
	}
	if Forced(CompactionPolicy) {
		t.Fatal("disabled Forced returned true")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	boom := errors.New("boom")
	Set(func(p Point, n uint64) error {
		if p == CacheLeader && n%3 == 0 {
			return boom
		}
		return nil
	})
	defer Clear()
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, Inject(CacheLeader) != nil)
	}
	want := []bool{false, false, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: injected=%v, want %v", i+1, got[i], want[i])
		}
	}
	if Hits(CacheLeader) != 6 {
		t.Fatalf("Hits = %d, want 6", Hits(CacheLeader))
	}
	if Hits(BFSStep) != 0 {
		t.Fatalf("untouched point has Hits = %d", Hits(BFSStep))
	}
}

func TestCountersAreRaceFree(t *testing.T) {
	Set(func(p Point, n uint64) error { return nil })
	defer Clear()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				Inject(BFSStep)
			}
		}()
	}
	wg.Wait()
	if Hits(BFSStep) != 8000 {
		t.Fatalf("Hits = %d, want 8000", Hits(BFSStep))
	}
}

func TestSetResetsCounters(t *testing.T) {
	Set(func(p Point, n uint64) error { return nil })
	Inject(SnapshotBuild)
	Set(func(p Point, n uint64) error { return nil })
	defer Clear()
	if Hits(SnapshotBuild) != 0 {
		t.Fatalf("Set did not reset counters: %d", Hits(SnapshotBuild))
	}
}
