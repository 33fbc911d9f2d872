package jsonfile

import (
	"fmt"
	"strings"
	"testing"
)

// skelRows renders n rows; layout(r) picks row r's member order and spacing.
func skelRows(n int, layout func(r int) int) []byte {
	var b strings.Builder
	for r := 0; r < n; r++ {
		l := layout(r)
		sp := []string{"", " "}[l%2]
		members := []string{
			fmt.Sprintf(`"id":%s%d`, sp, r),
			fmt.Sprintf(`"s":"x\"%d"`, r%3),
			fmt.Sprintf(`"p":{"e":%s%d.5,"a":[%d,{"e":1}]}`, sp, r*7, r),
			`"z":null`,
		}
		for i := l / 2 % 4; i > 0; i-- {
			members = append(members[1:], members[0])
		}
		b.WriteString("{" + strings.Join(members, ","+sp) + "}\n")
	}
	return []byte(b.String())
}

// TestSkeleton holds Skeleton.Find to FindPath on every row, and checks that
// it replays rows that share a layout, relearns after a shift and stops
// speculating over rows with no stable layout.
func TestSkeleton(t *testing.T) {
	walk := func(data []byte, path string) *Skeleton {
		k := NewSkeleton(SplitPath(path), 8)
		for pos := 0; pos < len(data); pos = NextRow(data, pos) {
			if got, want := k.Find(data, pos), FindPath(data, pos, k.path); got != want {
				t.Fatalf("path %s row at %d: skeleton %d, FindPath %d", path, pos, got, want)
			}
		}
		return k
	}
	for _, path := range []string{"missing", "s.e"} { // nothing to learn
		walk(skelRows(30, func(r int) int { return r }), path)
	}
	for _, path := range []string{"id", "p.e", "z", "p.a"} {
		for layout := 0; layout < 8; layout++ {
			k := walk(skelRows(30, func(r int) int { return layout + r/15*3 }), path)
			if k.misses != 0 || len(k.lits) == 0 {
				t.Fatalf("path %s layout %d: misses=%d lits=%q", path, layout, k.misses, k.lits)
			}
		}
		if k := walk(skelRows(40, func(r int) int { return r * 5 }), path); k.misses < k.maxMisses {
			t.Fatalf("path %s: still speculating over rows with no stable layout", path)
		}
	}
}
