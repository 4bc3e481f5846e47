package vm

import (
	"fmt"
	"slices"

	"dragprof/internal/bytecode"
	"dragprof/internal/heap"
)

// interpret is the VM's one dispatch loop. It runs the frames above depth
// base until the frame at base returns (nil) or the VM halts (the halt
// error).
//
// The loop keeps the top frame's code, locals, operand stack, pc and the
// instruction count in local variables, and executes the hottest opcodes
// inline; every other opcode goes through exec. Before anything outside
// the loop can observe the VM (exec, a throw, the slow path) park writes
// that state back, and after an out-of-line instruction the loop reloads
// it from whatever frame is then on top. An inline use of a profiled
// object stays in the loop: it writes the object's trailer and reads the
// frame's chain memo, neither of which needs the parked state.
//
// Each instruction pays one check of the poll word: when the instruction
// count reaches vm.pollAt the loop leaves the fast path for poll, the
// safepoint between instructions. Events that need a safepoint set pollAt
// to 0 (see rearm), so the check also covers them.
func (vm *VM) interpret(base int) error {
	if vm.halted {
		return vm.haltErr
	}
	if vm.cost.Instructions >= vm.maxSteps {
		// The first instruction would exceed the step budget: it is
		// counted, not run.
		vm.cost.Instructions++
		vm.halt(ErrStepBudget)
		return vm.haltErr
	}
loop:
	for {
		f := vm.top()
		code, locals := f.m.Code, f.locals
		st, sp, pc := f.stack[:cap(f.stack)], len(f.stack), f.pc
		steps := vm.cost.Instructions
	fast:
		for {
			at := pc
			in := &code[at]
			pc++
			steps++
			switch in.Op {
			case bytecode.LoadLocal:
				if sp == len(st) {
					vm.growStack(f, at, st[:sp], steps-1)
					continue loop
				}
				st[sp] = locals[in.A]
				sp++
			case bytecode.StoreLocal:
				sp--
				locals[in.A] = st[sp]
			case bytecode.ConstInt, bytecode.ConstBool, bytecode.ConstChar:
				if sp == len(st) {
					vm.growStack(f, at, st[:sp], steps-1)
					continue loop
				}
				st[sp] = heap.IntValue(int64(in.A))
				sp++

			case bytecode.Add:
				sp--
				st[sp-1] = heap.IntValue(st[sp-1].I + st[sp].I)
			case bytecode.Rem:
				sp--
				if st[sp].I == 0 {
					vm.park(f, at, pc, st[:sp-1], steps)
					vm.throwByName("ArithmeticException", "division by zero")
					break fast
				}
				st[sp-1] = heap.IntValue(st[sp-1].I % st[sp].I)
			case bytecode.CmpLT:
				sp--
				st[sp-1] = heap.BoolValue(st[sp-1].I < st[sp].I)

			case bytecode.Jump:
				pc = int(in.A)
			case bytecode.JumpIfFalse:
				sp--
				if st[sp].I == 0 {
					pc = int(in.A)
				}

			case bytecode.GetField:
				recv := st[sp-1].H
				if recv.IsNull() {
					vm.park(f, at, pc, st[:sp-1], steps)
					vm.throwByName("NullPointerException", "field read")
					break fast
				}
				o := vm.hp.Get(recv)
				st[sp-1] = o.Slots[in.A]
				if vm.observes(o) {
					vm.touch(o, vm.chainAt(f, at), UseGetField)
				}
			case bytecode.PutField:
				sp -= 2
				recv, val := st[sp].H, st[sp+1]
				if recv.IsNull() {
					vm.park(f, at, pc, st[:sp], steps)
					vm.throwByName("NullPointerException", "field write")
					break fast
				}
				o := vm.hp.Get(recv)
				o.Slots[in.A] = val
				if vm.bar != nil && val.IsRef {
					vm.bar.WriteBarrier(recv, val.H)
				}
				if vm.observes(o) {
					vm.touch(o, vm.chainAt(f, at), UsePutField)
				}

			case bytecode.ArrayLoad:
				sp--
				arr, idx := st[sp-1].H, st[sp].I
				if arr.IsNull() {
					vm.park(f, at, pc, st[:sp-1], steps)
					vm.throwByName("NullPointerException", "array read")
					break fast
				}
				o := vm.hp.Get(arr)
				if idx < 0 || int(idx) >= o.Len() {
					vm.park(f, at, pc, st[:sp-1], steps)
					vm.throwBounds(idx, o.Len())
					break fast
				}
				st[sp-1] = o.Get(int(idx))
				if vm.observes(o) {
					vm.touch(o, vm.chainAt(f, at), UseArray)
				}
			case bytecode.ArrayStore:
				sp -= 3
				arr, idx, val := st[sp].H, st[sp+1].I, st[sp+2]
				if arr.IsNull() {
					vm.park(f, at, pc, st[:sp], steps)
					vm.throwByName("NullPointerException", "array write")
					break fast
				}
				o := vm.hp.Get(arr)
				if idx < 0 || int(idx) >= o.Len() {
					vm.park(f, at, pc, st[:sp], steps)
					vm.throwBounds(idx, o.Len())
					break fast
				}
				o.Set(int(idx), val)
				if vm.bar != nil && val.IsRef {
					vm.bar.WriteBarrier(arr, val.H)
				}
				if vm.observes(o) {
					vm.touch(o, vm.chainAt(f, at), UseArray)
				}
			case bytecode.ArrayLen:
				arr := st[sp-1].H
				if arr.IsNull() {
					vm.park(f, at, pc, st[:sp-1], steps)
					vm.throwByName("NullPointerException", "array length")
					break fast
				}
				o := vm.hp.Get(arr)
				st[sp-1] = heap.IntValue(int64(o.Len()))
				if vm.observes(o) {
					vm.touch(o, vm.chainAt(f, at), UseArray)
				}

			default:
				vm.park(f, at, pc, st[:sp], steps)
				vm.exec(f, *in)
				break fast
			}
			if steps >= vm.pollAt {
				vm.park(f, at, pc, st[:sp], steps)
				break fast
			}
		}
		if vm.cost.Instructions >= vm.pollAt && vm.poll(base) {
			return vm.haltErr
		}
		if len(vm.frames) <= base {
			return nil
		}
	}
}

// park writes the interpreter loop's registers back: the frame's pc, the
// pc of the instruction it is executing (lastpc) and its operand stack, and
// the VM's instruction count.
func (vm *VM) park(f *frame, at, pc int, stack []heap.Value, steps int64) {
	f.lastpc, f.pc, f.stack = at, pc, stack
	vm.cost.Instructions = steps
}

// growStack makes room on f's full operand stack and rewinds the loop to
// the instruction at, uncounted, which runs again once the loop reloads
// the frame.
func (vm *VM) growStack(f *frame, at int, stack []heap.Value, steps int64) {
	vm.park(f, at, at, slices.Grow(stack, 1), steps)
}

// throwBounds raises IndexOutOfBoundsException for an array access.
func (vm *VM) throwBounds(idx int64, n int) {
	vm.throwByName("IndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", idx, n))
}

// exec interprets one instruction of frame f that the loop does not run
// inline.
func (vm *VM) exec(f *frame, in bytecode.Instr) {
	switch in.Op {
	case bytecode.Nop:

	case bytecode.ConstNull:
		f.push(heap.Null)
	case bytecode.ConstStr:
		h, err := vm.internedString(in.A)
		if err != nil {
			vm.fatal("string literal: %v", err)
			return
		}
		f.push(heap.RefValue(h))

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

	case bytecode.InvokeVirtual:
		vm.invokeVirtual(f, in)
	case bytecode.InvokeStatic:
		m := vm.prog.Methods[in.A]
		args := vm.popArgs(f, m.NumParams)
		chain := vm.chainAt(f, f.lastpc)
		vm.pushFrame(m, args, chain)
	case bytecode.InvokeSpecial:
		m := vm.prog.Methods[in.A]
		args := vm.popArgs(f, m.NumParams)
		recv := args[0]
		o := vm.deref(recv, "constructor call")
		if o == nil {
			return
		}
		vm.emitUse(o, UseInvoke)
		chain := vm.chainAt(f, f.lastpc)
		vm.pushFrame(m, args, chain)
	case bytecode.CallBuiltin:
		vm.callBuiltin(f, bytecode.Builtin(in.A))

	case bytecode.Return:
		vm.popReturn(heap.Value{}, false)
	case bytecode.ReturnValue:
		vm.popReturn(f.pop(), true)

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
	case bytecode.Neg:
		f.push(heap.IntValue(-f.pop().I))

	case bytecode.CmpEQ:
		b, a := f.pop().I, f.pop().I
		f.push(heap.BoolValue(a == b))
	case bytecode.CmpNE:
		b, a := f.pop().I, f.pop().I
		f.push(heap.BoolValue(a != b))
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
		vm.emitUse(o, UseMonitor)
		o.MonitorCount++
	case bytecode.MonitorExit:
		recv := f.pop()
		o := vm.deref(recv, "monitorexit")
		if o == nil {
			return
		}
		vm.emitUse(o, UseMonitor)
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
	vm.emitUse(o, UseInvoke)
	// Dynamic dispatch through the receiver's actual class.
	m := declared
	if o.Class >= 0 && o.Class != in.B {
		dyn := vm.prog.Classes[o.Class]
		if int(in.A) < len(dyn.VTable) {
			m = vm.prog.Methods[dyn.VTable[in.A]]
		}
	}
	chain := vm.chainAt(f, f.lastpc)
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
