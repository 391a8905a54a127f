// Package codegen synthesizes deterministic x86 machine code for the kernel
// modules used throughout the reproduction: 32-bit x86 (Generator) for the
// paper's Windows XP guests, and x86-64 (Generate64) for the 64-bit guests.
//
// The paper's experiments operate on real driver code taken from a Windows
// XP installation. This package substitutes a generator that emits genuine
// x86 instruction encodings (a decodable subset), with three properties the
// experiments depend on:
//
//   - Absolute-address operands. Instructions such as MOV EAX,[moffs32] and
//     CALL [abs32] embed 32-bit absolute virtual addresses. The generator
//     records their offsets so the PE builder can emit a .reloc table, and
//     the module loader rewrites them per load base — producing exactly the
//     cross-VM byte differences that ModChecker's Algorithm 2 reverses.
//   - Opcode caves. Runs of 0x00 bytes between functions, which the inline
//     hooking experiment (Section V-B.2) uses to place its payload.
//   - Determinism. The same seed yields identical bytes, modeling VMs
//     cloned from a single golden installation.
//
// The x86-64 generator is its own instruction mix rather than a mode of the
// x86 emitter: MOV RAX,imm64 operands are its DIR64 relocation sites, and
// RIP-relative accesses, which need no relocation, dominate, so its
// relocation density is far lower.
//
// A small length-disassembler (Decode) understands every encoding the x86
// generator emits; the inline hooker uses it to relocate the victim's first
// instructions into its trampoline, as real rootkits do.
package codegen

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Program is a generated code section: the raw bytes plus the offsets of
// every 32-bit absolute-address operand within them.
type Program struct {
	Code         []byte
	RelocOffsets []uint32 // offsets into Code of abs32 operands
	Functions    []uint32 // offsets of function entry points
	Caves        []Cave   // zero-byte caves between functions
}

// Cave is a run of 0x00 padding bytes usable as an injection site.
type Cave struct {
	Offset uint32
	Size   uint32
}

// Generator produces deterministic code sections.
type Generator struct {
	rng *rand.Rand
}

// New returns a Generator seeded deterministically; equal seeds produce
// byte-identical programs.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// GenerateParams controls code generation.
type GenerateParams struct {
	Size     uint32 // total section size in bytes (zero-padded tail)
	CodeVA   uint32 // absolute VA at which the section will be mapped (preferred base + section RVA)
	DataVA   uint32 // absolute VA of the data region address operands point into
	DataSize uint32 // size of the data region
	MinCave  uint32 // minimum cave size between functions (bytes of 0x00)
	MaxCave  uint32 // maximum cave size between functions
	MarkerAt bool   // emit the paper's DEC ECX marker as the first body instruction of function 0
}

// Generate emits functions until the section is full. Each function has a
// standard prologue/epilogue and a body mixing arithmetic, control flow and
// address-bearing memory operations.
func (g *Generator) Generate(p GenerateParams) (*Program, error) {
	if p.Size < 64 {
		return nil, fmt.Errorf("codegen: section size %d too small", p.Size)
	}
	if p.MaxCave < p.MinCave {
		p.MaxCave = p.MinCave
	}
	prog := &Program{Code: make([]byte, 0, p.Size)}
	e := &emitter{prog: prog, rng: g.rng, p: p}

	first := true
	for {
		// Reserve room for the largest possible function plus a cave so we
		// never overrun the requested size.
		if uint32(len(prog.Code))+maxFunctionSize+p.MaxCave > p.Size {
			break
		}
		e.function(first && p.MarkerAt)
		first = false
		cave := p.MinCave
		if p.MaxCave > p.MinCave {
			cave += uint32(e.rng.Intn(int(p.MaxCave - p.MinCave + 1)))
		}
		if cave > 0 {
			prog.Caves = append(prog.Caves, Cave{Offset: uint32(len(prog.Code)), Size: cave})
			prog.Code = append(prog.Code, make([]byte, cave)...)
		}
	}
	if len(prog.Functions) == 0 {
		return nil, fmt.Errorf("codegen: size %d fits no functions", p.Size)
	}
	// Zero-pad the tail to the requested size; record it as a cave too.
	if tail := p.Size - uint32(len(prog.Code)); tail > 0 {
		prog.Caves = append(prog.Caves, Cave{Offset: uint32(len(prog.Code)), Size: tail})
		prog.Code = append(prog.Code, make([]byte, tail)...)
	}
	return prog, nil
}

// maxFunctionSize bounds the bytes one generated function may occupy.
const maxFunctionSize = 96

type emitter struct {
	prog *Program
	rng  *rand.Rand
	p    GenerateParams
}

func (e *emitter) emit(b ...byte) { e.prog.Code = append(e.prog.Code, b...) }

// emitAbs32 appends a little-endian absolute address operand and records it
// as a relocation site.
func (e *emitter) emitAbs32(addr uint32) {
	e.prog.RelocOffsets = append(e.prog.RelocOffsets, uint32(len(e.prog.Code)))
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], addr)
	e.emit(b[:]...)
}

// dataAddr picks a 4-byte-aligned address inside the module's data region.
func (e *emitter) dataAddr() uint32 {
	if e.p.DataSize < 4 {
		return e.p.DataVA
	}
	return e.p.DataVA + uint32(e.rng.Intn(int(e.p.DataSize/4)))*4
}

// function emits one function: prologue, 4-12 body instructions, epilogue.
func (e *emitter) function(marker bool) {
	e.prog.Functions = append(e.prog.Functions, uint32(len(e.prog.Code)))
	e.emit(0x55)       // push ebp
	e.emit(0x8B, 0xEC) // mov ebp, esp
	if marker {
		// The paper's E1 target: a counter-register decrement the
		// infection rewrites as SUB ECX,1.
		e.emit(0xB9, 0x10, 0x00, 0x00, 0x00) // mov ecx, 16
		e.emit(0x49)                         // dec ecx
	}
	n := 4 + e.rng.Intn(9)
	for i := 0; i < n; i++ {
		e.bodyInstruction()
	}
	e.emit(0x5D) // pop ebp
	e.emit(0xC3) // ret
}

// bodyInstruction emits one randomly selected instruction. Roughly a third
// of the choices carry absolute addresses, giving realistic relocation
// density (drivers average an address every few dozen bytes).
func (e *emitter) bodyInstruction() {
	switch e.rng.Intn(12) {
	case 0: // mov eax, [moffs32]
		e.emit(0xA1)
		e.emitAbs32(e.dataAddr())
	case 1: // mov [moffs32], eax
		e.emit(0xA3)
		e.emitAbs32(e.dataAddr())
	case 2: // call dword ptr [abs32]  (IAT-style indirect call)
		e.emit(0xFF, 0x15)
		e.emitAbs32(e.dataAddr())
	case 3: // push imm32 (address of a string/structure)
		e.emit(0x68)
		e.emitAbs32(e.dataAddr())
	case 4: // mov esi, imm32 (address constant)
		e.emit(0xBE)
		e.emitAbs32(e.dataAddr())
	case 5: // mov eax, imm32 (plain constant, not relocated)
		e.emit(0xB8)
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(e.rng.Intn(1<<16)))
		e.emit(b[:]...)
	case 6: // add eax, imm32
		e.emit(0x05)
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(e.rng.Intn(1<<12)))
		e.emit(b[:]...)
	case 7: // xor eax, eax
		e.emit(0x31, 0xC0)
	case 8: // inc eax
		e.emit(0x40)
	case 9: // cmp eax, imm8 ; jz +2 ; nop ; nop
		e.emit(0x83, 0xF8, byte(e.rng.Intn(128)))
		e.emit(0x74, 0x02)
		e.emit(0x90, 0x90)
	case 10: // dec ecx
		e.emit(0x49)
	case 11: // nop
		e.emit(0x90)
	}
}

// GenerateData produces a deterministic initialized-data blob: pointer
// tables in front (relocatable, recorded in RelocOffsets relative to the
// blob) followed by pseudo-random bytes and embedded NUL-terminated strings.
func (g *Generator) GenerateData(size, dataVA uint32, pointerSlots int) (*Program, error) {
	if uint32(pointerSlots*4) > size {
		return nil, fmt.Errorf("codegen: %d pointer slots exceed data size %d", pointerSlots, size)
	}
	blob := make([]byte, size)
	prog := &Program{Code: blob}
	for i := 0; i < pointerSlots; i++ {
		off := uint32(i * 4)
		target := dataVA + uint32(pointerSlots*4) + uint32(g.rng.Intn(int(size)-pointerSlots*4))
		binary.LittleEndian.PutUint32(blob[off:], target)
		prog.RelocOffsets = append(prog.RelocOffsets, off)
	}
	for i := pointerSlots * 4; i < int(size); i++ {
		blob[i] = byte(g.rng.Intn(256))
	}
	// Sprinkle a few recognizable strings, as real .data sections carry.
	words := []string{"\\Device\\Harmless", "IoCreateDevice", "KeBugCheckEx", "HalInitSystem"}
	for _, w := range words {
		if pointerSlots*4+len(w)+1 >= int(size) {
			break
		}
		off := pointerSlots*4 + g.rng.Intn(int(size)-pointerSlots*4-len(w)-1)
		copy(blob[off:], w)
		blob[off+len(w)] = 0
	}
	return prog, nil
}
