package guest

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"modchecker/internal/mm"
)

var updatePins = flag.Bool("update", false, "rewrite "+x86PinFile+" from the current build")

// x86PinFile is the committed answer file: one "<sha256>  <name>" line per
// pinned artifact, in the format sha256sum -c reads.
const x86PinFile = "testdata/x86.sha256"

// TestX86BytesPinned holds the 32-bit simulator to digests committed with
// the tree: every StandardCatalog image, and one seeded two-guest boot
// (every physical frame, plus each module's base and LDR entry VA). The
// paper's figures and every benchmark workload boot these guests, so a
// change that moves any x86 byte must show up here as a reviewed diff of
// the answer file, never as silent drift.
func TestX86BytesPinned(t *testing.T) {
	got := map[string]string{}
	disk, err := BuildStandardDisk()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range StandardCatalog() {
		sum := sha256.Sum256(disk[spec.Name])
		got["image/"+spec.Name] = hex.EncodeToString(sum[:])
	}
	h := sha256.New()
	for i := 0; i < 2; i++ {
		g, err := New(Config{Name: fmt.Sprintf("Dom%d", i+1), BootSeed: int64(i+1) * 7919, Disk: disk})
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, mm.PageSize)
		for pa := uint64(0); pa < g.Phys().Size(); pa += mm.PageSize {
			if err := g.Phys().ReadPhys(uint32(pa), frame); err != nil {
				t.Fatal(err)
			}
			h.Write(frame)
		}
		for _, m := range g.Modules() {
			var rec [16]byte
			binary.LittleEndian.PutUint64(rec[0:], uint64(m.Base))
			binary.LittleEndian.PutUint64(rec[8:], uint64(m.LdrEntryVA))
			h.Write([]byte(m.Name))
			h.Write(rec[:])
		}
	}
	got["boot/2-guests"] = hex.EncodeToString(h.Sum(nil))

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updatePins {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(x86PinFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readPins(t)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: sha256 %s, pinned %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d pins in %s, computed %d", len(want), x86PinFile, len(got))
	}
}

func readPins(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(x86PinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", x86PinFile, sc.Text())
		}
		pins[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}
