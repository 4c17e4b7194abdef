package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
)

// TestCacheEvictionUnderConcurrentSolves is the lifetime-hardening
// keystone: eviction must never free a factor an in-flight solve still
// holds. Workers hammer solves against one hot factor while a churn
// goroutine inserts oversized fillers that evict it over and over.
// Every Get re-pins; free() nils the payload, so a refcounting bug
// shows up as a nil dereference or a race report (scripts/check.sh
// runs this under -race), not a silently stale read.
func TestCacheEvictionUnderConcurrentSolves(t *testing.T) {
	const n = 128
	base := buildTestFactor(t, n)
	c := NewFactorCache(500, obs.NewRegistry(4))

	// Each build wraps the same factorized payload in a fresh cache
	// entry, so "rebuilding" after eviction is free and the churn rate
	// stays high. free() nils only the wrapper's pointers.
	newHot := func() (*Factor, error) {
		return &Factor{FP: "hot", Spec: base.Spec, L: base.L, Op: base.Op, Plan: base.Plan, SizeBytes: 200}, nil
	}
	rhs := dense.Random(rand.New(rand.NewSource(3)), n, 1)

	const workers, iters = 4, 60
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f, _, err := c.Get(context.Background(), "hot", newHot)
				if err != nil {
					errs <- err
					return
				}
				b := rhs.Clone()
				err = core.SolveCtx(context.Background(), f.L, b)
				freed := f.freed.Load()
				f.Release()
				if err != nil {
					errs <- fmt.Errorf("solve against pinned factor: %w", err)
					return
				}
				if freed {
					errs <- fmt.Errorf("factor freed while a solve held its pin")
					return
				}
			}
		}()
	}

	// Churn: each filler exceeds the whole budget, so installing it
	// evicts everything else (the keep-one rule retains the filler).
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fp := fmt.Sprintf("filler-%d", i)
			f, _, err := c.Get(context.Background(), fp, func() (*Factor, error) {
				return &Factor{FP: fp, SizeBytes: 600}, nil
			})
			if err == nil {
				f.Release()
			}
		}
	}()

	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("churn produced no evictions; the test exercised nothing")
	}
}

// TestFactorRefcount pins the reference-counting contract directly:
// managed factors free on the last release, tryRetain refuses a dead
// factor, and over-release panics.
func TestFactorRefcount(t *testing.T) {
	f := &Factor{FP: "x", SizeBytes: 1, managed: true}
	f.refs.Store(1)
	if !f.tryRetain() {
		t.Fatal("tryRetain must succeed on a live factor")
	}
	f.Release()
	if f.freed.Load() {
		t.Fatal("freed with a reference still held")
	}
	f.Release()
	if !f.freed.Load() {
		t.Fatal("last release must free a managed factor")
	}
	if f.tryRetain() {
		t.Fatal("tryRetain must refuse a freed factor")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	f.Release()
}

// TestUnmanagedFactorStaysInert: Factor literals never installed in a
// cache (the construction every older test uses) must survive paired
// Retain/Release cycles from the batcher's promotion path untouched.
func TestUnmanagedFactorStaysInert(t *testing.T) {
	f := buildTestFactor(t, 128)
	f.Retain()
	f.Release()
	if f.L == nil || f.freed.Load() {
		t.Fatal("unmanaged factor must not free its payload")
	}
}
