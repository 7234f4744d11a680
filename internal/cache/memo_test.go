package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func stringBytes(k, v string) int { return len(k) + len(v) }

// held recomputes the bytes m's entries occupy from the entries
// themselves, next to the running count.
func held(m *Memo[string, string]) (recomputed, counted, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.entries {
		recomputed += stringBytes(k, v) + MemoEntryBytes
	}
	return recomputed, m.bytes, len(m.entries)
}

// TestMemoBudget checks the accounting while the memo fills and resets
// wholesale, and that an entry larger than the budget is not stored.
func TestMemoBudget(t *testing.T) {
	const budget = 64 << 10
	m := NewMemo[string, string](budget, stringBytes)
	resets, last := 0, 0
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("%s%d", strings.Repeat("k", 200), i)
		m.Put(k, strings.ToUpper(k))
		if v, ok := m.Get(k); !ok || v != strings.ToUpper(k) {
			t.Fatalf("Get(%d) = %q, %v right after Put", i, v, ok)
		}
		recomputed, counted, _ := held(m)
		if recomputed != counted || counted > budget {
			t.Fatalf("after %d puts: counted %d bytes, held %d, budget %d", i+1, counted, recomputed, budget)
		}
		if counted < last {
			resets++
		}
		last = counted
	}
	if resets == 0 {
		t.Fatal("1000 entries of ~0.5 KB never filled the 64 KB budget")
	}

	m.Put("k0dup", "first")
	m.Put("k0dup", "second")
	if v, _ := m.Get("k0dup"); v != "first" {
		t.Fatalf("a second Put replaced the entry: %q", v)
	}

	_, before, n := held(m)
	huge := strings.Repeat("h", budget)
	m.Put(huge, "")
	if _, ok := m.Get(huge); ok {
		t.Fatal("entry larger than the budget was stored")
	}
	if _, after, m2 := held(m); after != before || m2 != n {
		t.Fatalf("oversized entry changed the memo: %d bytes/%d entries -> %d/%d", before, n, after, m2)
	}
}

// TestMemoConcurrent shares one small memo between goroutines that
// read back their own entries while flooding it with distinct keys,
// forcing wholesale resets under load. Run with -race.
func TestMemoConcurrent(t *testing.T) {
	const budget = 16 << 10
	m := NewMemo[string, string](budget, stringBytes)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("g%d/%d/%s", g, i, strings.Repeat("x", 100))
				m.Put(k, k+"!")
				if v, ok := m.Get(k); ok && v != k+"!" {
					t.Errorf("Get(%q) = %q", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if recomputed, counted, _ := held(m); recomputed != counted || counted > budget {
		t.Fatalf("memo counts %d bytes, holds %d, budget %d", counted, recomputed, budget)
	}
}
