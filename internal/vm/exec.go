package vm

import (
	"fmt"

	"dragprof/internal/bytecode"
	"dragprof/internal/heap"
)

// exec interprets one instruction of frame f.
func (vm *VM) exec(f *frame, in bytecode.Instr) {
	switch in.Op {
	case bytecode.Nop:

	case bytecode.ConstInt, bytecode.ConstChar:
		f.push(heap.IntValue(int64(in.A)))
	case bytecode.ConstBool:
		f.push(heap.IntValue(int64(in.A)))
	case bytecode.ConstNull:
		f.push(heap.Null)
	case bytecode.ConstStr:
		h, err := vm.internedString(in.A)
		if err != nil {
			vm.fatal("string literal: %v", err)
			return
		}
		f.push(heap.RefValue(h))

	case bytecode.LoadLocal:
		f.push(f.locals[in.A])
	case bytecode.StoreLocal:
		f.locals[in.A] = f.pop()

	case bytecode.GetField:
		recv := f.pop()
		o := vm.deref(recv, "field read")
		if o == nil {
			return
		}
		vm.emitUse(recv.H, o, UseGetField, in.Line)
		f.push(o.Slots[in.A])
	case bytecode.PutField:
		val := f.pop()
		recv := f.pop()
		o := vm.deref(recv, "field write")
		if o == nil {
			return
		}
		vm.emitUse(recv.H, o, UsePutField, in.Line)
		o.Slots[in.A] = val
		if vm.bar != nil && val.IsRef {
			vm.bar.WriteBarrier(recv.H, val.H)
		}

	case bytecode.GetStatic:
		f.push(vm.statics[in.B][in.A])
	case bytecode.PutStatic:
		vm.statics[in.B][in.A] = f.pop()

	case bytecode.NewObject:
		h, err := vm.allocObject(in.A, in.B, false)
		if err != nil {
			vm.throwOOM()
			return
		}
		f.push(heap.RefValue(h))
	case bytecode.NewArray:
		n := f.pop().I
		if n < 0 {
			vm.throwByName("NegativeArraySizeException", fmt.Sprintf("length %d", n))
			return
		}
		h, err := vm.allocArray(bytecode.ElemKind(in.A), int(n), in.B, false)
		if err != nil {
			vm.throwOOM()
			return
		}
		f.push(heap.RefValue(h))

	case bytecode.RegionNewObject:
		h, err := vm.allocObject(in.A, in.B, false)
		if err != nil {
			vm.throwOOM()
			return
		}
		vm.noteRegion(f, h)
		f.push(heap.RefValue(h))
	case bytecode.RegionNewArray:
		n := f.pop().I
		if n < 0 {
			vm.throwByName("NegativeArraySizeException", fmt.Sprintf("length %d", n))
			return
		}
		h, err := vm.allocArray(bytecode.ElemKind(in.A), int(n), in.B, false)
		if err != nil {
			vm.throwOOM()
			return
		}
		vm.noteRegion(f, h)
		f.push(heap.RefValue(h))

	case bytecode.ArrayLoad:
		idx := f.pop().I
		arr := f.pop()
		o := vm.deref(arr, "array read")
		if o == nil {
			return
		}
		if idx < 0 || int(idx) >= o.Len() {
			vm.throwByName("IndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", idx, o.Len()))
			return
		}
		vm.emitUse(arr.H, o, UseArray, in.Line)
		f.push(o.Get(int(idx)))
	case bytecode.ArrayStore:
		val := f.pop()
		idx := f.pop().I
		arr := f.pop()
		o := vm.deref(arr, "array write")
		if o == nil {
			return
		}
		if idx < 0 || int(idx) >= o.Len() {
			vm.throwByName("IndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", idx, o.Len()))
			return
		}
		vm.emitUse(arr.H, o, UseArray, in.Line)
		o.Set(int(idx), val)
		if vm.bar != nil && val.IsRef {
			vm.bar.WriteBarrier(arr.H, val.H)
		}
	case bytecode.ArrayLen:
		arr := f.pop()
		o := vm.deref(arr, "array length")
		if o == nil {
			return
		}
		vm.emitUse(arr.H, o, UseArray, in.Line)
		f.push(heap.IntValue(int64(o.Len())))

	case bytecode.InvokeVirtual:
		vm.invokeVirtual(f, in)
	case bytecode.InvokeStatic:
		m := vm.prog.Methods[in.A]
		args := vm.popArgs(f, m.NumParams)
		chain := vm.chainAt(f, in.Line)
		vm.pushFrame(m, args, chain)
	case bytecode.InvokeSpecial:
		m := vm.prog.Methods[in.A]
		args := vm.popArgs(f, m.NumParams)
		recv := args[0]
		o := vm.deref(recv, "constructor call")
		if o == nil {
			return
		}
		vm.emitUse(recv.H, o, UseInvoke, in.Line)
		chain := vm.chainAt(f, in.Line)
		vm.pushFrame(m, args, chain)
	case bytecode.CallBuiltin:
		vm.callBuiltin(f, bytecode.Builtin(in.A), in.Line)

	case bytecode.Return:
		vm.popReturn(heap.Value{}, false)
	case bytecode.ReturnValue:
		vm.popReturn(f.pop(), true)

	case bytecode.Jump:
		f.pc = int(in.A)
	case bytecode.JumpIfFalse:
		if f.pop().I == 0 {
			f.pc = int(in.A)
		}
	case bytecode.JumpIfTrue:
		if f.pop().I != 0 {
			f.pc = int(in.A)
		}
	case bytecode.JumpIfNull:
		if f.pop().H.IsNull() {
			f.pc = int(in.A)
		}
	case bytecode.JumpIfNonNull:
		if !f.pop().H.IsNull() {
			f.pc = int(in.A)
		}

	case bytecode.Add:
		b, a := f.pop().I, f.pop().I
		f.push(heap.IntValue(a + b))
	case bytecode.Sub:
		b, a := f.pop().I, f.pop().I
		f.push(heap.IntValue(a - b))
	case bytecode.Mul:
		b, a := f.pop().I, f.pop().I
		f.push(heap.IntValue(a * b))
	case bytecode.Div:
		b, a := f.pop().I, f.pop().I
		if b == 0 {
			vm.throwByName("ArithmeticException", "division by zero")
			return
		}
		f.push(heap.IntValue(a / b))
	case bytecode.Rem:
		b, a := f.pop().I, f.pop().I
		if b == 0 {
			vm.throwByName("ArithmeticException", "division by zero")
			return
		}
		f.push(heap.IntValue(a % b))
	case bytecode.Neg:
		f.push(heap.IntValue(-f.pop().I))

	case bytecode.CmpEQ:
		b, a := f.pop().I, f.pop().I
		f.push(heap.BoolValue(a == b))
	case bytecode.CmpNE:
		b, a := f.pop().I, f.pop().I
		f.push(heap.BoolValue(a != b))
	case bytecode.CmpLT:
		b, a := f.pop().I, f.pop().I
		f.push(heap.BoolValue(a < b))
	case bytecode.CmpLE:
		b, a := f.pop().I, f.pop().I
		f.push(heap.BoolValue(a <= b))
	case bytecode.CmpGT:
		b, a := f.pop().I, f.pop().I
		f.push(heap.BoolValue(a > b))
	case bytecode.CmpGE:
		b, a := f.pop().I, f.pop().I
		f.push(heap.BoolValue(a >= b))
	case bytecode.RefEQ:
		b, a := f.pop().H, f.pop().H
		f.push(heap.BoolValue(a == b))
	case bytecode.RefNE:
		b, a := f.pop().H, f.pop().H
		f.push(heap.BoolValue(a != b))
	case bytecode.Not:
		f.push(heap.BoolValue(f.pop().I == 0))

	case bytecode.Dup:
		v := f.stack[len(f.stack)-1]
		f.push(v)
	case bytecode.Pop:
		f.pop()
	case bytecode.Swap:
		n := len(f.stack)
		f.stack[n-1], f.stack[n-2] = f.stack[n-2], f.stack[n-1]

	case bytecode.CheckCast:
		v := f.stack[len(f.stack)-1]
		if !v.H.IsNull() {
			o := vm.hp.Lookup(v.H)
			if o == nil || o.Class < 0 || !vm.prog.IsSubclass(o.Class, in.A) {
				f.pop()
				got := "array"
				if o != nil && o.Class >= 0 {
					got = vm.prog.Classes[o.Class].Name
				}
				vm.throwByName("ClassCastException",
					fmt.Sprintf("%s is not a %s", got, vm.prog.Classes[in.A].Name))
				return
			}
		}

	case bytecode.Throw:
		v := f.pop()
		if v.H.IsNull() {
			vm.throwByName("NullPointerException", "throw null")
			return
		}
		vm.throwHandle(v.H)

	case bytecode.MonitorEnter:
		recv := f.pop()
		o := vm.deref(recv, "monitorenter")
		if o == nil {
			return
		}
		vm.emitUse(recv.H, o, UseMonitor, in.Line)
		o.MonitorCount++
	case bytecode.MonitorExit:
		recv := f.pop()
		o := vm.deref(recv, "monitorexit")
		if o == nil {
			return
		}
		vm.emitUse(recv.H, o, UseMonitor, in.Line)
		if o.MonitorCount <= 0 {
			vm.fatal("monitorexit without matching monitorenter")
			return
		}
		o.MonitorCount--

	default:
		vm.fatal("unknown opcode %s", in.Op)
	}
}

// deref resolves a reference value, raising NullPointerException for null.
// It returns nil after raising.
func (vm *VM) deref(v heap.Value, what string) *heap.Object {
	if v.H.IsNull() {
		vm.throwByName("NullPointerException", what)
		return nil
	}
	return vm.hp.Get(v.H)
}

// popArgs pops n arguments pushed left-to-right. The result aliases f's
// stack past its new top, so it is valid only until f is pushed to again;
// pushFrame copies it first.
func (vm *VM) popArgs(f *frame, n int) []heap.Value {
	base := len(f.stack) - n
	args := f.stack[base:]
	f.stack = f.stack[:base]
	return args
}

func (vm *VM) invokeVirtual(f *frame, in bytecode.Instr) {
	static := vm.prog.Classes[in.B]
	declared := vm.prog.Methods[static.VTable[in.A]]
	args := vm.popArgs(f, declared.NumParams)
	recv := args[0]
	o := vm.deref(recv, "method call")
	if o == nil {
		return
	}
	vm.emitUse(recv.H, o, UseInvoke, in.Line)
	// Dynamic dispatch through the receiver's actual class.
	m := declared
	if o.Class >= 0 && o.Class != in.B {
		dyn := vm.prog.Classes[o.Class]
		if int(in.A) < len(dyn.VTable) {
			m = vm.prog.Methods[dyn.VTable[in.A]]
		}
	}
	chain := vm.chainAt(f, in.Line)
	vm.pushFrame(m, args, chain)
}

// popReturn pops the current frame; the returned value goes to the caller's
// operand stack, or to lastResult when the popped frame was a callSync base.
func (vm *VM) popReturn(v heap.Value, hasValue bool) {
	vm.popFrame()
	barrier := 0
	if len(vm.barriers) > 0 {
		barrier = vm.barriers[len(vm.barriers)-1]
	}
	if len(vm.frames) == barrier {
		if hasValue {
			vm.lastResult = v
			vm.hasResult = true
		}
		return
	}
	if hasValue {
		vm.top().push(v)
	}
}
