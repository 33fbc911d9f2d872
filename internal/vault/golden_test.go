package vault

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jit"
	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/vector"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/codec.golden from the current encoder")

// goldenScans builds a positional map and a structural index the way a cold
// query does, by sequential scans over a fixed CSV and JSONL file of rows of
// uneven width, so that their chunks take every width.
func goldenScans(t *testing.T) (*posmap.Map, *jsonidx.Index) {
	t.Helper()
	var csv, jsonl bytes.Buffer
	for r := 0; r < 300; r++ {
		pad := strings.Repeat("x", r*r%97)
		fmt.Fprintf(&csv, "%d,%d,%s,%d.5,%d\n", r, r*r, pad, r%13, -r)
		fmt.Fprintf(&jsonl, `{"id":%d,"tag":"%s","p":{"e":%d.25,"n":%d}}`+"\n", r, pad, r*7, r%5)
	}
	schema := []catalog.Column{{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Int64},
		{Name: "pad", Type: vector.Bytes}, {Name: "d", Type: vector.Float64}, {Name: "e", Type: vector.Int64}}
	pm := posmap.New(posmap.Policy{EveryK: 2}, len(schema))
	sc, err := jit.NewCSVSequentialScan(csv.Bytes(), &catalog.Table{Name: "c", Format: catalog.CSV, Schema: schema},
		[]int{0, 3}, pm, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(sc); err != nil {
		t.Fatal(err)
	}
	jschema := []catalog.Column{{Name: "id", Type: vector.Int64}, {Name: "p.e", Type: vector.Float64},
		{Name: "p.n", Type: vector.Int64}}
	x := jsonidx.New()
	js, err := jit.NewJSONSequentialScan(jsonl.Bytes(), &catalog.Table{Name: "j", Format: catalog.JSON, Schema: jschema},
		[]int{0, 1, 2}, x, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(js); err != nil {
		t.Fatal(err)
	}
	return pm, x
}

// TestCodecGolden pins the vault's on-disk format of the chunked kinds: the
// bytes EncodePosMap and EncodeJSONIdx write for a fixed scan, and
// EncodeShreds for sampleShreds (narrow and flat full Int64 columns,
// partials with row ids, Float64, Bool and VARCHAR values), must not change
// unless their kind's layout version does. Rewrite with
// `go test ./internal/vault -run TestCodecGolden -update-golden`.
func TestCodecGolden(t *testing.T) {
	pm, x := goldenScans(t)
	fp := Fingerprint{Size: 1 << 20, MTime: 1700000000, Sum: 0x0123456789abcdef, Schema: 7}
	var got strings.Builder
	for _, e := range []struct {
		name string
		b    []byte
	}{{"posmap", EncodePosMap(fp, pm)}, {"jsonidx", EncodeJSONIdx(fp, x)}, {"shreds", EncodeShreds(fp, sampleShreds())}} {
		fmt.Fprintf(&got, "%s %d bytes\n", e.name, len(e.b))
		for b := e.b; len(b) > 0; b = b[min(32, len(b)):] {
			got.WriteString(hex.EncodeToString(b[:min(32, len(b))]) + "\n")
		}
	}
	path := filepath.Join("testdata", "codec.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("encoding differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("encoding differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
