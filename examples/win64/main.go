// The 64-bit future-work extension: the same cross-VM integrity check,
// run by the same checker (internal/core), against simulated Windows-x64
// guests with PE32+ modules, 4-level page tables and DIR64 relocations.
// They are the same guest.Guest as the 32-bit pools, booted from a disk of
// PE32+ images; the vmi profile carries the pointer width and the PE magic
// carries the address width.
//
//	go run ./examples/win64
package main

import (
	"fmt"
	"log"

	"modchecker/internal/core"
	"modchecker/internal/guest"
	"modchecker/internal/vmi"
)

func main() {
	disk, err := guest.BuildStandardDisk64()
	if err != nil {
		log.Fatal(err)
	}
	const n = 4
	profile := vmi.Win7x64Profile(guest.PsLoadedModuleList64VA)
	guests := make([]*guest.Guest, n)
	targets := make([]core.Target, n)
	for i := 0; i < n; i++ {
		g, err := guest.New(guest.Config{
			Name:     fmt.Sprintf("Win7x64-%d", i+1),
			BootSeed: int64(i+1) * 7919,
			Disk:     disk,
		})
		if err != nil {
			log.Fatal(err)
		}
		guests[i] = g
		targets[i] = core.Target{Name: g.Name(), Handle: vmi.Open(g.Name(), g.Phys(), g.CR3(), profile)}
	}

	fmt.Println("64-bit pool up; hal.dll load bases (DIR64-relocated):")
	for _, g := range guests {
		fmt.Printf("  %s: %#x\n", g.Name(), g.Module("hal.dll").Base)
	}

	checker := core.NewChecker(core.Config{})
	rep, err := checker.CheckModule("hal.dll", targets[0], targets[1:])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhal.dll on %s: %s (%d/%d peers agree)\n",
		targets[0].Name, rep.Verdict, rep.Successes, rep.Comparisons)

	// A 64-bit inline patch on one VM.
	victim := guests[2]
	mod := victim.Module("tcpip.sys")
	if err := victim.AddressSpace().Write(mod.Base+0x1200, []byte{0xCC, 0xCC}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npatched 2 bytes of tcpip.sys .text on %s\n", victim.Name())
	rep, err = checker.CheckModule("tcpip.sys", targets[2],
		[]core.Target{targets[0], targets[1], targets[3]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tcpip.sys on %s: %s, mismatched: %v\n", victim.Name(), rep.Verdict, rep.MismatchedComponents())
}
