package codegen

import (
	"encoding/binary"
	"math/rand"
)

// Generate64 emits deterministic x86-64 driver code: the x86-64
// counterpart of Generator.Generate, a separate instruction mix because it
// is a separate ISA. RelocOffsets name 8-byte absolute-address operands
// (DIR64 sites); the program has no caves. Two address-bearing
// idioms mirror real x64 drivers:
//
//   - MOV RAX, imm64 (48 B8 + 8 bytes) — an absolute address requiring a
//     DIR64 fixup; x64 code has far fewer of these than x86 but pointer
//     materialization still uses them;
//   - MOV RAX, [RIP+disp32] (48 8B 05 + 4 bytes) — RIP-relative, position
//     independent and relocation-free, the dominant x64 addressing mode.
//
// The mix (~1 absolute per 4 RIP-relative) reproduces the much sparser
// relocation density of 64-bit modules, which is exactly what makes the
// 64-bit Algorithm 2 variant cheaper per byte than its 32-bit counterpart.
func Generate64(seed int64, size uint32, imageBase uint64, dataRVA, dataSize uint32) *Program {
	rng := rand.New(rand.NewSource(seed))
	p := &Program{Code: make([]byte, 0, size)}
	le := binary.LittleEndian

	emit := func(b ...byte) { p.Code = append(p.Code, b...) }
	dataTarget := func() uint32 {
		return dataRVA + uint32(rng.Intn(int(dataSize/8)))*8
	}

	const maxFn = 128
	for uint32(len(p.Code))+maxFn+16 <= size {
		p.Functions = append(p.Functions, uint32(len(p.Code)))
		emit(0x55)             // push rbp
		emit(0x48, 0x8B, 0xEC) // mov rbp, rsp
		n := 4 + rng.Intn(8)
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0: // mov rax, imm64 (absolute address -> DIR64 site)
				emit(0x48, 0xB8)
				p.RelocOffsets = append(p.RelocOffsets, uint32(len(p.Code)))
				var b [8]byte
				le.PutUint64(b[:], imageBase+uint64(dataTarget()))
				emit(b[:]...)
			case 1, 2: // mov rax, [rip+disp32] (no relocation)
				emit(0x48, 0x8B, 0x05)
				var b [4]byte
				le.PutUint32(b[:], uint32(rng.Intn(1<<12)))
				emit(b[:]...)
			case 3: // lea rcx, [rip+disp32]
				emit(0x48, 0x8D, 0x0D)
				var b [4]byte
				le.PutUint32(b[:], uint32(rng.Intn(1<<12)))
				emit(b[:]...)
			case 4: // mov eax, imm32
				emit(0xB8)
				var b [4]byte
				le.PutUint32(b[:], uint32(rng.Intn(1<<16)))
				emit(b[:]...)
			case 5: // xor rax, rax
				emit(0x48, 0x31, 0xC0)
			case 6: // call rel32
				emit(0xE8)
				var b [4]byte
				le.PutUint32(b[:], uint32(rng.Intn(1<<10)))
				emit(b[:]...)
			case 7: // dec ecx (the E1 marker opcode family)
				emit(0xFF, 0xC9)
			case 8: // test rax, rax ; jz +2
				emit(0x48, 0x85, 0xC0, 0x74, 0x02, 0x90, 0x90)
			case 9: // nop
				emit(0x90)
			}
		}
		emit(0x5D) // pop rbp
		emit(0xC3) // ret
		// Inter-function cave.
		cave := 8 + rng.Intn(16)
		p.Code = append(p.Code, make([]byte, cave)...)
	}
	if tail := int(size) - len(p.Code); tail > 0 {
		p.Code = append(p.Code, make([]byte, tail)...)
	}
	return p
}

// GenerateData64 produces a data blob whose leading slots are 8-byte
// pointers into the blob itself (DIR64 sites): the x86-64 counterpart of
// Generator.GenerateData.
func GenerateData64(seed int64, size uint32, imageBase uint64, selfRVA uint32, slots int) *Program {
	rng := rand.New(rand.NewSource(seed ^ 0xDA7A))
	blob := make([]byte, size)
	p := &Program{Code: blob}
	le := binary.LittleEndian
	for i := 0; i < slots; i++ {
		off := uint32(i * 8)
		target := imageBase + uint64(selfRVA) + uint64(slots*8+rng.Intn(int(size)-slots*8))
		le.PutUint64(blob[off:], target)
		p.RelocOffsets = append(p.RelocOffsets, off)
	}
	for i := slots * 8; i < int(size); i++ {
		blob[i] = byte(rng.Intn(256))
	}
	return p
}
