// Package bytecode defines the stack-machine instruction set executed by the
// dragprof virtual machine, together with the containers (methods, classes,
// programs) produced by the MiniJava compiler.
//
// The design deliberately mirrors the subset of the JVM instruction set that
// the paper's instrumented JVM hooks: getfield/putfield, invokevirtual,
// monitorenter/monitorexit, array loads and stores, and allocation
// instructions. Every instruction that can "use" an object (in the paper's
// sense, Section 2.1.1) is a distinct opcode so the interpreter can emit a
// precise use event.
package bytecode

import "fmt"

// Op is a bytecode opcode.
type Op uint8

// Instruction opcodes. Operand meanings are documented per opcode; A and B
// are the two int32 operands of an Instr.
const (
	// Nop does nothing.
	Nop Op = iota

	// ConstInt pushes the integer A.
	ConstInt
	// ConstBool pushes the boolean A (0 or 1).
	ConstBool
	// ConstChar pushes the character code A.
	ConstChar
	// ConstNull pushes the null reference.
	ConstNull
	// ConstStr allocates (or reuses, per the VM's interning policy) the
	// string literal with pool index A and pushes a reference to it.
	ConstStr

	// LoadLocal pushes local slot A.
	LoadLocal
	// StoreLocal pops into local slot A.
	StoreLocal

	// GetField pops an object reference and pushes field slot A of it.
	// B is the class id that declares the field (for diagnostics).
	// Counts as a use of the object.
	GetField
	// PutField pops a value then an object reference, and stores the value
	// into field slot A. Counts as a use of the object.
	PutField
	// GetStatic pushes static slot A of class B.
	GetStatic
	// PutStatic pops into static slot A of class B.
	PutStatic

	// NewObject allocates an instance of class A and pushes a reference.
	// B is the allocation site id.
	NewObject
	// NewArray pops a length and allocates an array with element kind A
	// (an ElemKind); B is the allocation site id. For ElemRef arrays the
	// element class is not tracked (MiniJava arrays are covariant-free).
	NewArray
	// ArrayLoad pops index then array reference, pushes the element.
	// A is the ElemKind. Counts as a use of the array.
	ArrayLoad
	// ArrayStore pops value, index, then array reference, stores the
	// element. A is the ElemKind. Counts as a use of the array.
	ArrayStore
	// ArrayLen pops an array reference and pushes its length.
	// Counts as a use of the array.
	ArrayLen

	// InvokeVirtual pops arguments then a receiver and invokes the method
	// at vtable index A; B is the static class id used for call-graph
	// construction. Counts as a use of the receiver.
	InvokeVirtual
	// InvokeStatic invokes method id A.
	InvokeStatic
	// InvokeSpecial invokes method id A directly on the popped receiver
	// (constructors and super calls). Counts as a use of the receiver.
	InvokeSpecial
	// CallBuiltin invokes the builtin with id A (see Builtin). Builtins
	// that dereference an object argument count as native handle uses.
	CallBuiltin

	// Return returns void from the current method.
	Return
	// ReturnValue pops a value and returns it.
	ReturnValue

	// Jump transfers control to pc A.
	Jump
	// JumpIfFalse pops a boolean and jumps to pc A when it is false.
	JumpIfFalse
	// JumpIfTrue pops a boolean and jumps to pc A when it is true.
	JumpIfTrue
	// JumpIfNull pops a reference and jumps to pc A when it is null.
	JumpIfNull
	// JumpIfNonNull pops a reference and jumps to pc A when it is non-null.
	JumpIfNonNull

	// Add through Neg are integer arithmetic on the top of stack.
	Add
	Sub
	Mul
	Div
	Rem
	Neg

	// CmpEQ through CmpGE pop two integers and push a boolean.
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	// RefEQ and RefNE compare two references for identity.
	RefEQ
	RefNE
	// Not negates the boolean on top of the stack.
	Not

	// Dup duplicates the top of stack.
	Dup
	// Pop discards the top of stack.
	Pop
	// Swap exchanges the top two stack values.
	Swap

	// CheckCast verifies the reference on top of the stack is null or an
	// instance of class A, raising ClassCastException otherwise.
	CheckCast
	// Throw pops an exception reference and raises it.
	Throw
	// MonitorEnter pops an object reference and enters its monitor.
	// Counts as a use of the object.
	MonitorEnter
	// MonitorExit pops an object reference and exits its monitor.
	// Counts as a use of the object.
	MonitorExit

	// RegionNewObject is NewObject (A = class id, B = site id) for an
	// allocation the optimizer proved method-local: the VM additionally
	// registers the object in the current frame's region, and frees it
	// wholesale when the frame exits (normal return or unwinding) if it is
	// still alive then. Emitted only by internal/opt; the compiler never
	// produces it.
	RegionNewObject
	// RegionNewArray is NewArray (A = ElemKind, B = site id) with the same
	// frame-region registration as RegionNewObject.
	RegionNewArray

	opCount
)

var opNames = [...]string{
	Nop: "nop", ConstInt: "const.i", ConstBool: "const.b", ConstChar: "const.c",
	ConstNull: "const.null", ConstStr: "const.str",
	LoadLocal: "load", StoreLocal: "store",
	GetField: "getfield", PutField: "putfield",
	GetStatic: "getstatic", PutStatic: "putstatic",
	NewObject: "new", NewArray: "newarray",
	ArrayLoad: "aload", ArrayStore: "astore", ArrayLen: "arraylen",
	InvokeVirtual: "invokevirtual", InvokeStatic: "invokestatic",
	InvokeSpecial: "invokespecial", CallBuiltin: "builtin",
	Return: "return", ReturnValue: "returnvalue",
	Jump: "jump", JumpIfFalse: "jumpfalse", JumpIfTrue: "jumptrue",
	JumpIfNull: "jumpnull", JumpIfNonNull: "jumpnonnull",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem", Neg: "neg",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge", RefEQ: "refeq", RefNE: "refne",
	Not: "not", Dup: "dup", Pop: "pop", Swap: "swap",
	Throw: "throw", MonitorEnter: "monitorenter", MonitorExit: "monitorexit",
	CheckCast:       "checkcast",
	RegionNewObject: "region.new", RegionNewArray: "region.newarray",
}

// Base maps the region allocation opcodes to their plain forms (the operand
// layouts are identical); every other opcode maps to itself. Analyses that
// predate the optimizer reason over base opcodes only — see opt's
// normalization step.
func (op Op) Base() Op {
	switch op {
	case RegionNewObject:
		return NewObject
	case RegionNewArray:
		return NewArray
	}
	return op
}

// String returns the mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// ElemKind identifies the element type of an array.
type ElemKind int32

// Array element kinds.
const (
	ElemInt ElemKind = iota
	ElemBool
	ElemChar
	ElemRef
)

// String returns a short name for the element kind.
func (k ElemKind) String() string {
	switch k {
	case ElemInt:
		return "int"
	case ElemBool:
		return "bool"
	case ElemChar:
		return "char"
	case ElemRef:
		return "ref"
	}
	return fmt.Sprintf("elem(%d)", int32(k))
}

// ElemBytes returns the per-element payload size in bytes, following the
// classic JVM layout the paper measured against (Section 2.1.1).
func (k ElemKind) ElemBytes() int64 {
	switch k {
	case ElemBool:
		return 1
	case ElemChar:
		return 2
	default:
		return 4
	}
}

// Builtin identifies a native function provided by the VM. Builtins model
// the "native code" of the paper's JVM: ones that receive an object argument
// dereference its handle and therefore count as uses.
type Builtin int32

// Builtin function ids.
const (
	// BuiltinPrint prints the String argument without a newline.
	BuiltinPrint Builtin = iota
	// BuiltinPrintln prints the String argument followed by a newline.
	BuiltinPrintln
	// BuiltinPrintInt prints the integer argument followed by a newline.
	BuiltinPrintInt
	// BuiltinRandom returns a deterministic pseudo-random int in [0, arg).
	BuiltinRandom
	// BuiltinSeedRandom reseeds the VM's deterministic generator.
	BuiltinSeedRandom
	// BuiltinArrayCopy copies src, srcPos, dst, dstPos, len between arrays.
	BuiltinArrayCopy
	// BuiltinStringEquals compares two Strings for content equality.
	BuiltinStringEquals
	// BuiltinHash returns a deterministic hash of the String argument.
	BuiltinHash
	// BuiltinTicks returns the allocation clock (bytes allocated so far).
	BuiltinTicks
	// BuiltinGC requests a garbage collection.
	BuiltinGC
	// BuiltinAbort terminates the program with an error message.
	BuiltinAbort

	builtinCount
)

var builtinNames = [...]string{
	BuiltinPrint: "print", BuiltinPrintln: "println", BuiltinPrintInt: "printInt",
	BuiltinRandom: "random", BuiltinSeedRandom: "seedRandom",
	BuiltinArrayCopy: "arraycopy", BuiltinStringEquals: "stringEquals",
	BuiltinHash: "hash", BuiltinTicks: "ticks", BuiltinGC: "gc",
	BuiltinAbort: "abort",
}

// String returns the source-level name of the builtin.
func (b Builtin) String() string {
	if int(b) < len(builtinNames) && builtinNames[b] != "" {
		return builtinNames[b]
	}
	return fmt.Sprintf("builtin(%d)", int32(b))
}

// BuiltinByName maps a source-level name to its builtin id.
func BuiltinByName(name string) (Builtin, bool) {
	for b, n := range builtinNames {
		if n == name {
			return Builtin(b), true
		}
	}
	return 0, false
}

// NumBuiltins reports how many builtins exist.
func NumBuiltins() int { return int(builtinCount) }

// Instr is a single bytecode instruction. Line records the MiniJava source
// line that produced the instruction; it feeds allocation-site and
// last-use-site reporting.
type Instr struct {
	Op   Op
	A    int32
	B    int32
	Line int32
}

// String renders the instruction in disassembly form.
func (in Instr) String() string {
	switch in.Op {
	case Nop, ConstNull, Return, ReturnValue, Add, Sub, Mul, Div, Rem, Neg,
		CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, RefEQ, RefNE, Not,
		Dup, Pop, Swap, Throw, MonitorEnter, MonitorExit:
		return in.Op.String()
	case GetField, PutField, GetStatic, PutStatic, NewObject, RegionNewObject, InvokeVirtual:
		return fmt.Sprintf("%s %d %d", in.Op, in.A, in.B)
	case NewArray, RegionNewArray:
		return fmt.Sprintf("%s %s site=%d", in.Op, ElemKind(in.A), in.B)
	case CallBuiltin:
		return fmt.Sprintf("%s %s", in.Op, Builtin(in.A))
	default:
		return fmt.Sprintf("%s %d", in.Op, in.A)
	}
}

// ExRange is an exception-table entry: while pc is in [From, To) and an
// exception whose class is (a subclass of) CatchClass is raised, control
// transfers to Handler with the exception pushed. CatchClass -1 catches all.
type ExRange struct {
	From, To   int32
	Handler    int32
	CatchClass int32
}

// MethodFlags describe a method.
type MethodFlags uint8

// Method flag bits.
const (
	// FlagStatic marks a static method.
	FlagStatic MethodFlags = 1 << iota
	// FlagCtor marks a constructor.
	FlagCtor
	// FlagFinalizer marks a finalize() method.
	FlagFinalizer
)

// Method is a compiled method body.
type Method struct {
	ID         int32
	Class      int32 // declaring class id; -1 for top-level functions
	Name       string
	NumParams  int // including the receiver for instance methods
	MaxLocals  int
	Flags      MethodFlags
	Code       []Instr
	Exceptions []ExRange
}

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.Flags&FlagStatic != 0 }

// Visibility is a MiniJava access modifier. The profiler reports it for
// fields because the paper's Table 5 classifies rewrites by the reference
// kind they touch (private, protected, package, public static, ...).
type Visibility uint8

// Visibility levels.
const (
	VisPackage Visibility = iota
	VisPrivate
	VisProtected
	VisPublic
)

// String returns the source-level modifier spelling.
func (v Visibility) String() string {
	switch v {
	case VisPrivate:
		return "private"
	case VisProtected:
		return "protected"
	case VisPublic:
		return "public"
	default:
		return "package"
	}
}

// FieldDef describes one field of a class.
type FieldDef struct {
	Name   string
	Slot   int32 // instance field slot or static slot index
	Static bool
	Ref    bool // true when the field holds a reference
	Vis    Visibility
}

// Class is a compiled class.
type Class struct {
	ID     int32
	Name   string
	Super  int32      // -1 for root classes
	Fields []FieldDef // declared fields only (not inherited)
	// NumFieldSlots counts instance slots including inherited ones.
	NumFieldSlots int32
	// NumStaticSlots counts static slots declared by this class.
	NumStaticSlots int32
	// VTable maps vtable index to method id, including inherited entries.
	VTable []int32
	// VTableNames maps vtable index to method name (parallel to VTable).
	VTableNames []string
	// Finalizable is true when the class (or a superclass) declares
	// finalize().
	Finalizable bool
	// HasInit is the method id of the static initializer, or -1.
	HasInit int32
	// RefSlots marks which instance slots hold references.
	RefSlots []bool
	// StaticRefSlots marks which static slots hold references.
	StaticRefSlots []bool
	// SourceFile is the MiniJava file that declared the class.
	SourceFile string
}

// Site is an allocation site: the static program point of a NewObject or
// NewArray instruction (or of a call, for nested-site chains).
type Site struct {
	ID     int32
	Method int32
	Line   int32
	// Desc is "Class.method:line (what)" for reports.
	Desc string
	// What names the allocated class or array kind, or "call" for call
	// sites appearing in nested chains.
	What string
}

// Program is a complete compiled program.
type Program struct {
	Classes []*Class
	Methods []*Method
	Sites   []Site
	Strings []string // string literal pool
	// Main is the method id of the entry point.
	Main int32
	// StaticInits lists static initializer method ids in execution order.
	StaticInits []int32
	// StringClass is the class id of the well-known String class, and
	// StringChars its char[] field slot. The VM materializes string
	// literals through them.
	StringClass int32
	StringChars int32
	// ClassByName resolves a class name to its id.
	ClassIndex map[string]int32
	// RuntimeClasses maps well-known exception class names
	// (NullPointerException, IndexOutOfBoundsException,
	// ArithmeticException, NegativeArraySizeException, OutOfMemoryError)
	// to class ids for VM-raised exceptions; absent names are not mapped.
	RuntimeClasses map[string]int32
	// RuntimeSites maps those same names to synthetic allocation sites
	// used when the VM itself allocates the exception object.
	RuntimeSites map[string]int32
}

// ClassByName returns the class with the given name, or nil.
func (p *Program) ClassByName(name string) *Class {
	id, ok := p.ClassIndex[name]
	if !ok {
		return nil
	}
	return p.Classes[id]
}

// MethodByName returns the method of class with the given name, searching
// superclasses, or nil.
func (p *Program) MethodByName(class, name string) *Method {
	c := p.ClassByName(class)
	for c != nil {
		for i, n := range c.VTableNames {
			if n == name {
				return p.Methods[c.VTable[i]]
			}
		}
		// static methods are not in the vtable; scan all methods.
		for _, m := range p.Methods {
			if m.Class == c.ID && m.Name == name {
				return m
			}
		}
		if c.Super < 0 {
			break
		}
		c = p.Classes[c.Super]
	}
	return nil
}

// IsSubclass reports whether class sub is class super or a subclass of it.
func (p *Program) IsSubclass(sub, super int32) bool {
	for sub >= 0 {
		if sub == super {
			return true
		}
		sub = p.Classes[sub].Super
	}
	return false
}

// SiteDesc returns the printable description of a site id, tolerating -1.
func (p *Program) SiteDesc(id int32) string {
	if id < 0 || int(id) >= len(p.Sites) {
		return "<none>"
	}
	return p.Sites[id].Desc
}
