package vm

import (
	"fmt"

	"dragprof/internal/bytecode"
	"dragprof/internal/heap"
)

// callBuiltin dispatches a native function. Builtins that receive object
// arguments dereference their handles, which counts as a native use — the
// paper's fifth use category.
func (vm *VM) callBuiltin(f *frame, b bytecode.Builtin) {
	vm.cost.Builtins++
	switch b {
	case bytecode.BuiltinPrint, bytecode.BuiltinPrintln:
		s, ok := vm.useString(f.pop())
		if !ok {
			return
		}
		if b == bytecode.BuiltinPrintln {
			fmt.Fprintln(vm.out, s)
		} else {
			fmt.Fprint(vm.out, s)
		}

	case bytecode.BuiltinPrintInt:
		fmt.Fprintln(vm.out, f.pop().I)

	case bytecode.BuiltinRandom:
		n := f.pop().I
		if n <= 0 {
			f.push(heap.IntValue(0))
			return
		}
		f.push(heap.IntValue(int64(vm.nextRand() % uint64(n))))

	case bytecode.BuiltinSeedRandom:
		v := f.pop().I
		vm.rng = uint64(v)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D

	case bytecode.BuiltinArrayCopy:
		n := f.pop().I
		dstPos := f.pop().I
		dst := f.pop()
		srcPos := f.pop().I
		src := f.pop()
		so := vm.deref(src, "arraycopy source")
		if so == nil {
			return
		}
		do := vm.deref(dst, "arraycopy destination")
		if do == nil {
			return
		}
		vm.emitUse(so, UseNative)
		vm.emitUse(do, UseNative)
		if n < 0 || srcPos < 0 || dstPos < 0 ||
			srcPos+n > int64(so.Len()) || dstPos+n > int64(do.Len()) {
			vm.throwByName("IndexOutOfBoundsException",
				fmt.Sprintf("arraycopy src[%d:%d) of %d, dst[%d:%d) of %d",
					srcPos, srcPos+n, so.Len(), dstPos, dstPos+n, do.Len()))
			return
		}
		if so.Slots == nil && do.Slots == nil {
			// Both unmaterialized: copying zeros over zeros.
		} else {
			so.Materialize()
			do.Materialize()
			copy(do.Slots[dstPos:dstPos+n], so.Slots[srcPos:srcPos+n])
		}
		if vm.bar != nil && do.Elem == bytecode.ElemRef {
			for _, v := range do.Slots[dstPos : dstPos+n] {
				if v.IsRef {
					vm.bar.WriteBarrier(dst.H, v.H)
				}
			}
		}

	case bytecode.BuiltinStringEquals:
		sb := f.pop()
		sa := f.pop()
		a, ok := vm.useString(sa)
		if !ok {
			return
		}
		bs, ok := vm.useString(sb)
		if !ok {
			return
		}
		f.push(heap.BoolValue(a == bs))

	case bytecode.BuiltinHash:
		s, ok := vm.useString(f.pop())
		if !ok {
			return
		}
		var h uint32 = 2166136261
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
		f.push(heap.IntValue(int64(h & 0x7fffffff)))

	case bytecode.BuiltinTicks:
		f.push(heap.IntValue(vm.hp.Clock()))

	case bytecode.BuiltinGC:
		vm.collectForSpace()

	case bytecode.BuiltinAbort:
		s, _ := vm.stringArg(f.pop())
		vm.fatal("abort: %s", s)

	default:
		vm.fatal("unknown builtin %d", b)
	}
}

// useString reads a String argument, emitting native uses of the String and
// its char array, raising NullPointerException for null. ok is false after
// an exception was raised.
func (vm *VM) useString(v heap.Value) (string, bool) {
	o := vm.deref(v, "native string access")
	if o == nil {
		return "", false
	}
	vm.emitUse(o, UseNative)
	if vm.prog.StringChars >= 0 && int(vm.prog.StringChars) < o.Len() {
		cv := o.Get(int(vm.prog.StringChars))
		if cv.IsRef && !cv.H.IsNull() {
			if arr := vm.hp.Lookup(cv.H); arr != nil {
				vm.emitUse(arr, UseNative)
			}
		}
	}
	return vm.StringValue(v.H), true
}

// stringArg is useString without the null exception (for abort paths).
func (vm *VM) stringArg(v heap.Value) (string, bool) {
	if v.H.IsNull() {
		return "<null>", false
	}
	o := vm.hp.Lookup(v.H)
	if o == nil {
		return "<freed>", false
	}
	vm.emitUse(o, UseNative)
	return vm.StringValue(v.H), true
}
