package gpmetis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestProfileGolden pins the kernel profile byte for byte: the JSON
// export and the full roofline table of one small profiled run must match
// the committed files exactly. Any change to how launches are recorded,
// rolled up, or classified shows up here as a diff; regenerate with
// `go test -run TestProfileGolden -update .` only when the profile is
// meant to change.
func TestProfileGolden(t *testing.T) {
	g, err := Delaunay(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, 8, Options{Profile: true, GPUThreshold: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("Profile: true produced no Result.Profile")
	}
	var js bytes.Buffer
	if err := res.Profile.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		got  []byte
	}{
		{"profile_delaunay2000.json", js.Bytes()},
		{"profile_delaunay2000.txt", []byte(res.Profile.Table(0))},
	} {
		path := filepath.Join("testdata", f.name)
		if *updateGolden {
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s differs from the golden file (%d vs %d bytes); regenerate with -update only if the profile is meant to change",
				path, len(f.got), len(want))
		}
	}
}
