//! Recursive-descent parser for the OpenQASM 2.0 subset, and the
//! AST→[`Circuit`] builder.
//!
//! The grammar covered is exactly what the toolkit's own exporter (and
//! the qelib1 prelude it assumes) can produce, plus the standard
//! conveniences external circuits lean on:
//!
//! * `OPENQASM 2.0;` header, `include "…";` lines (tolerated and
//!   ignored — the qelib1 gate set is built in);
//! * `qreg`/`creg` declarations (multiple registers map to contiguous
//!   qubit index ranges in declaration order);
//! * the qelib1 calls the exporter emits — `x y z h s sdg t tdg rx ry
//!   rz cx cz cu1 swap ccx` — plus `CX` (the builtin spelling), `id`
//!   (accepted as a no-op) and `u1` (imported as `rz`, identical up to
//!   global phase);
//! * user-defined `gate` macros, lowered by expansion at every call
//!   site into the gate set above;
//! * `measure reg[i] -> creg[j];` (and whole-register broadcast),
//!   `barrier` (parsed and dropped — barriers carry no semantics the
//!   compiler's dependency DAG doesn't already enforce);
//! * whole-register broadcast on gate calls (`h q;`, `cx q,r;`) and
//!   constant angle arithmetic (`pi/2`, `-3*pi/4`, `sin`, `cos`, …).
//!
//! `opaque`, `if`, and `reset` are outside the subset and produce
//! typed [`QasmError`]s rather than silent misparses.

use super::lexer::{tokenize, Tok, Token};
use super::{QasmError, QasmErrorKind};
use crate::{Circuit, Gate, Qubit};
use std::collections::HashMap;

/// Macro expansion nesting limit. Body callees are validated against
/// builtins and *previously defined* macros at definition time, so
/// cycles cannot be expressed; this bounds legitimate (deeply nested)
/// towers and is defense in depth should that validation ever weaken.
const MAX_MACRO_DEPTH: u32 = 64;

/// Operand limit of one angle expression. It bounds both the parser's
/// recursion and the depth of the expression tree (evaluated and
/// dropped recursively), so a pathologically nested or long expression
/// is a typed error instead of a stack overflow.
const MAX_EXPR_OPERANDS: u32 = 256;

/// Qubit total limit across every `qreg`. Far above any device natoms
/// models, it stops a declared register from sizing the allocation: a
/// broadcast over `qreg q[4000000000];` would otherwise ask for one
/// gate per qubit and run out of memory.
const MAX_QUBITS: u32 = 1 << 16;

/// Limit on the gates one import emits, after macro expansion and
/// broadcast. Neither is otherwise bounded: each extra level of a
/// doubling macro tower (`gate g2 a { g1 a; g1 a; }`) doubles the
/// output, so a few hundred bytes of source could ask for billions of
/// gates. The paper's largest programs (100 qubits) stay under 10⁴
/// gates even lowered and routed at MID 1, and every committed corpus
/// file under 10², so 2²⁰ leaves two orders of magnitude of headroom.
const MAX_GATES: usize = 1 << 20;

/// Parses an OpenQASM 2.0 source string into a [`Circuit`].
///
/// The returned circuit's register is the concatenation of every
/// declared `qreg`, in declaration order; every gate is one of the
/// compiler's native [`Gate`] variants (macros are expanded, `u1`
/// lowers to `rz`, `barrier`s are dropped).
///
/// # Errors
///
/// Returns a [`QasmError`] pointing at the offending source line and
/// column for lexical errors, grammar violations, unknown or misused
/// gates/registers, out-of-range indices, and gates that fail circuit
/// validation (e.g. duplicate operands).
///
/// # Example
///
/// ```
/// use na_circuit::qasm::parse_qasm;
///
/// let c = parse_qasm(
///     "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
/// )
/// .unwrap();
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.len(), 2);
/// ```
pub fn parse_qasm(src: &str) -> Result<Circuit, QasmError> {
    let toks = tokenize(src)?;
    Parser::new(toks).program()
}

/// The built-in (qelib1 + OpenQASM primitive) gate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Builtin {
    X,
    Y,
    Z,
    H,
    S,
    Sdg,
    T,
    Tdg,
    Rx,
    Ry,
    Rz,
    U1,
    Cx,
    Cz,
    Cu1,
    Swap,
    Ccx,
    Id,
}

impl Builtin {
    fn lookup(name: &str) -> Option<Builtin> {
        Some(match name {
            "x" => Builtin::X,
            "y" => Builtin::Y,
            "z" => Builtin::Z,
            "h" => Builtin::H,
            "s" => Builtin::S,
            "sdg" => Builtin::Sdg,
            "t" => Builtin::T,
            "tdg" => Builtin::Tdg,
            "rx" => Builtin::Rx,
            "ry" => Builtin::Ry,
            "rz" => Builtin::Rz,
            "u1" => Builtin::U1,
            "cx" | "CX" => Builtin::Cx,
            "cz" => Builtin::Cz,
            "cu1" => Builtin::Cu1,
            "swap" => Builtin::Swap,
            "ccx" => Builtin::Ccx,
            "id" => Builtin::Id,
            _ => return None,
        })
    }

    /// `(classical parameters, qubit operands)`.
    fn arity(self) -> (usize, usize) {
        match self {
            Builtin::Rx | Builtin::Ry | Builtin::Rz | Builtin::U1 => (1, 1),
            Builtin::Cu1 => (1, 2),
            Builtin::Cx | Builtin::Cz | Builtin::Swap => (0, 2),
            Builtin::Ccx => (0, 3),
            _ => (0, 1),
        }
    }

    /// The native gate for one call; `None` for `id` (a no-op).
    ///
    /// `u1(λ)` imports as `Rz(λ)` — the two differ only by the global
    /// phase `e^{iλ/2}`, which no uncontrolled use can observe.
    fn build(self, p: &[f64], q: &[Qubit]) -> Option<Gate> {
        Some(match self {
            Builtin::X => Gate::X(q[0]),
            Builtin::Y => Gate::Y(q[0]),
            Builtin::Z => Gate::Z(q[0]),
            Builtin::H => Gate::H(q[0]),
            Builtin::S => Gate::S(q[0]),
            Builtin::Sdg => Gate::Sdg(q[0]),
            Builtin::T => Gate::T(q[0]),
            Builtin::Tdg => Gate::Tdg(q[0]),
            Builtin::Rx => Gate::Rx(q[0], p[0]),
            Builtin::Ry => Gate::Ry(q[0], p[0]),
            Builtin::Rz | Builtin::U1 => Gate::Rz(q[0], p[0]),
            Builtin::Cx => Gate::Cnot {
                control: q[0],
                target: q[1],
            },
            Builtin::Cz => Gate::Cz(q[0], q[1]),
            Builtin::Cu1 => Gate::Cphase(q[0], q[1], p[0]),
            Builtin::Swap => Gate::Swap(q[0], q[1]),
            Builtin::Ccx => Gate::Toffoli {
                controls: [q[0], q[1]],
                target: q[2],
            },
            Builtin::Id => return None,
        })
    }
}

/// A constant-foldable angle expression. Parameters are indices into
/// the enclosing macro's formal parameter list (top-level expressions
/// have none, so every identifier there must be `pi` or a function).
#[derive(Debug, Clone)]
enum Expr {
    Num(f64),
    Pi,
    Param(usize),
    Neg(Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    Pow(Box<Expr>, Box<Expr>),
    Func(Func, Box<Expr>),
}

#[derive(Debug, Clone, Copy)]
enum Func {
    Sin,
    Cos,
    Tan,
    Exp,
    Ln,
    Sqrt,
}

impl Func {
    fn lookup(name: &str) -> Option<Func> {
        Some(match name {
            "sin" => Func::Sin,
            "cos" => Func::Cos,
            "tan" => Func::Tan,
            "exp" => Func::Exp,
            "ln" => Func::Ln,
            "sqrt" => Func::Sqrt,
            _ => return None,
        })
    }
}

impl Expr {
    fn eval(&self, env: &[f64]) -> f64 {
        match self {
            Expr::Num(x) => *x,
            Expr::Pi => std::f64::consts::PI,
            Expr::Param(i) => env[*i],
            Expr::Neg(e) => -e.eval(env),
            Expr::Add(a, b) => a.eval(env) + b.eval(env),
            Expr::Sub(a, b) => a.eval(env) - b.eval(env),
            Expr::Mul(a, b) => a.eval(env) * b.eval(env),
            Expr::Div(a, b) => a.eval(env) / b.eval(env),
            Expr::Pow(a, b) => a.eval(env).powf(b.eval(env)),
            Expr::Func(f, e) => {
                let x = e.eval(env);
                match f {
                    Func::Sin => x.sin(),
                    Func::Cos => x.cos(),
                    Func::Tan => x.tan(),
                    Func::Exp => x.exp(),
                    Func::Ln => x.ln(),
                    Func::Sqrt => x.sqrt(),
                }
            }
        }
    }
}

/// One call inside a `gate` body: a name, parameter expressions over
/// the formals, and qubit operands as indices into the formal qargs.
#[derive(Debug, Clone)]
struct BodyCall {
    name: String,
    line: u32,
    col: u32,
    params: Vec<Expr>,
    args: Vec<usize>,
}

/// A user-defined `gate` macro.
#[derive(Debug, Clone)]
struct GateDef {
    num_params: usize,
    num_qargs: usize,
    body: Vec<BodyCall>,
}

/// An unresolved `name` / `name[i]` operand: the register name, the
/// optional index (with its token, for range-error positions), and
/// the name's own token.
type RawOperand = (String, Option<(u32, Token)>, Token);

/// A resolved top-level qubit operand: one site or a whole register.
#[derive(Debug, Clone, Copy)]
enum Operand {
    One(Qubit),
    Reg { offset: u32, size: u32 },
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// `name → (offset, size)` with offsets assigned in declaration
    /// order; the final register is the concatenation.
    qregs: HashMap<String, (u32, u32)>,
    cregs: HashMap<String, u32>,
    macros: HashMap<String, GateDef>,
    num_qubits: u32,
    /// Operands the current angle expression may still parse.
    operands_left: u32,
    /// Assembled gates with the source position of the call that
    /// produced them, for late circuit validation.
    gates: Vec<(Gate, u32, u32)>,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Self {
        Parser {
            toks,
            pos: 0,
            qregs: HashMap::new(),
            cregs: HashMap::new(),
            macros: HashMap::new(),
            num_qubits: 0,
            operands_left: 0,
            gates: Vec::new(),
        }
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err_at(&self, t: &Token, kind: QasmErrorKind) -> QasmError {
        QasmError::new(t.line, t.col, kind)
    }

    fn unexpected(&self, expected: &str) -> QasmError {
        let t = self.peek();
        self.err_at(
            t,
            QasmErrorKind::UnexpectedToken {
                found: t.tok.describe(),
                expected: expected.to_string(),
            },
        )
    }

    fn expect(&mut self, tok: &Tok, expected: &str) -> Result<Token, QasmError> {
        if &self.peek().tok == tok {
            Ok(self.advance())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn expect_ident(&mut self, expected: &str) -> Result<(String, Token), QasmError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                let t = self.advance();
                Ok((s, t))
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn expect_index(&mut self) -> Result<(u32, Token), QasmError> {
        match self.peek().tok {
            Tok::Int(n) if n <= u64::from(u32::MAX) => {
                let t = self.advance();
                Ok((n as u32, t))
            }
            _ => Err(self.unexpected("a register index")),
        }
    }

    // --- program ---------------------------------------------------------

    fn program(mut self) -> Result<Circuit, QasmError> {
        self.header()?;
        while self.peek().tok != Tok::Eof {
            self.statement()?;
        }
        let mut circuit = Circuit::new(self.num_qubits);
        for (gate, line, col) in std::mem::take(&mut self.gates) {
            circuit
                .try_push(gate)
                .map_err(|e| QasmError::new(line, col, QasmErrorKind::InvalidGate(e)))?;
        }
        Ok(circuit)
    }

    fn header(&mut self) -> Result<(), QasmError> {
        let (kw, t) = self.expect_ident("the OPENQASM header")?;
        if kw != "OPENQASM" {
            return Err(self.err_at(
                &t,
                QasmErrorKind::UnexpectedToken {
                    found: format!("{kw:?}"),
                    expected: "the OPENQASM header".to_string(),
                },
            ));
        }
        let version = self.advance();
        match version.tok {
            Tok::Real(2.0) => {}
            ref other => {
                return Err(self.err_at(
                    &version,
                    QasmErrorKind::UnsupportedVersion(other.describe()),
                ))
            }
        }
        self.expect(&Tok::Semi, "';' after the version")?;
        Ok(())
    }

    fn statement(&mut self) -> Result<(), QasmError> {
        let (name, t) = self.expect_ident("a statement")?;
        match name.as_str() {
            "include" => {
                self.expect_str("an include path")?;
                self.expect(&Tok::Semi, "';' after include")?;
                Ok(())
            }
            "qreg" => self.register_decl(true),
            "creg" => self.register_decl(false),
            "gate" => self.gate_def(),
            "barrier" => {
                // Parsed for well-formedness, then dropped: the
                // compiler's dependency DAG already sequences gates.
                loop {
                    self.qarg()?;
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Semi, "';' after barrier")?;
                Ok(())
            }
            "measure" => self.measure(),
            "opaque" | "if" | "reset" => Err(self.err_at(
                &t,
                QasmErrorKind::Unsupported(format!("{name:?} statement")),
            )),
            _ => self.gate_call(name, t),
        }
    }

    fn expect_str(&mut self, expected: &str) -> Result<String, QasmError> {
        match self.peek().tok.clone() {
            Tok::Str(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn register_decl(&mut self, quantum: bool) -> Result<(), QasmError> {
        let (name, t) = self.expect_ident("a register name")?;
        if self.qregs.contains_key(&name) || self.cregs.contains_key(&name) {
            return Err(self.err_at(&t, QasmErrorKind::DuplicateDefinition(name)));
        }
        self.expect(&Tok::LBracket, "'['")?;
        let (size, st) = self.expect_index()?;
        if size == 0 {
            return Err(self.err_at(&st, QasmErrorKind::Unsupported("zero-size register".into())));
        }
        self.expect(&Tok::RBracket, "']'")?;
        self.expect(&Tok::Semi, "';' after the register declaration")?;
        if quantum {
            // `num_qubits` never exceeds the limit, so this cannot wrap.
            if size > MAX_QUBITS - self.num_qubits {
                let what = format!("more than {MAX_QUBITS} qubits");
                return Err(self.err_at(&st, QasmErrorKind::Unsupported(what)));
            }
            self.qregs.insert(name, (self.num_qubits, size));
            self.num_qubits += size;
        } else {
            self.cregs.insert(name, size);
        }
        Ok(())
    }

    // --- gate definitions ------------------------------------------------

    fn gate_def(&mut self) -> Result<(), QasmError> {
        let (name, t) = self.expect_ident("a gate name")?;
        if Builtin::lookup(&name).is_some() || self.macros.contains_key(&name) {
            return Err(self.err_at(&t, QasmErrorKind::DuplicateDefinition(name)));
        }
        let mut params: Vec<String> = Vec::new();
        if self.peek().tok == Tok::LParen {
            self.advance();
            if self.peek().tok != Tok::RParen {
                loop {
                    let (p, _) = self.expect_ident("a parameter name")?;
                    params.push(p);
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen, "')'")?;
        }
        let mut qargs: Vec<String> = Vec::new();
        loop {
            let (q, _) = self.expect_ident("a qubit argument name")?;
            qargs.push(q);
            if self.peek().tok == Tok::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&Tok::LBrace, "'{'")?;
        let mut body = Vec::new();
        while self.peek().tok != Tok::RBrace {
            let (callee, ct) = self.expect_ident("a gate call or '}'")?;
            // The spec allows only built-in gates and *previously
            // defined* macros in a body; checking here (rather than at
            // expansion) is what makes macro recursion impossible.
            if callee != "barrier"
                && Builtin::lookup(&callee).is_none()
                && !self.macros.contains_key(&callee)
            {
                return Err(self.err_at(&ct, QasmErrorKind::UnknownGate(callee)));
            }
            if callee == "barrier" {
                loop {
                    self.expect_ident("a qubit argument")?;
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Semi, "';' after barrier")?;
                continue;
            }
            let mut call_params = Vec::new();
            if self.peek().tok == Tok::LParen {
                self.advance();
                if self.peek().tok != Tok::RParen {
                    loop {
                        call_params.push(self.angle(&params)?);
                        if self.peek().tok == Tok::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen, "')'")?;
            }
            let mut args = Vec::new();
            loop {
                let (a, at) = self.expect_ident("a qubit argument")?;
                match qargs.iter().position(|q| q == &a) {
                    Some(i) => args.push(i),
                    None => return Err(self.err_at(&at, QasmErrorKind::UnknownRegister(a))),
                }
                if self.peek().tok == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&Tok::Semi, "';' after the gate call")?;
            body.push(BodyCall {
                name: callee,
                line: ct.line,
                col: ct.col,
                params: call_params,
                args,
            });
        }
        self.expect(&Tok::RBrace, "'}'")?;
        self.macros.insert(
            name,
            GateDef {
                num_params: params.len(),
                num_qargs: qargs.len(),
                body,
            },
        );
        Ok(())
    }

    // --- expressions -----------------------------------------------------

    /// One angle expression (a gate-call parameter), parsed within the
    /// [`MAX_EXPR_OPERANDS`] budget.
    fn angle(&mut self, params: &[String]) -> Result<Expr, QasmError> {
        self.operands_left = MAX_EXPR_OPERANDS;
        self.expr(params)
    }

    fn expr(&mut self, params: &[String]) -> Result<Expr, QasmError> {
        let mut lhs = self.term(params)?;
        loop {
            match self.peek().tok {
                Tok::Plus => {
                    self.advance();
                    lhs = Expr::Add(Box::new(lhs), Box::new(self.term(params)?));
                }
                Tok::Minus => {
                    self.advance();
                    lhs = Expr::Sub(Box::new(lhs), Box::new(self.term(params)?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self, params: &[String]) -> Result<Expr, QasmError> {
        let mut lhs = self.unary(params)?;
        loop {
            match self.peek().tok {
                Tok::Star => {
                    self.advance();
                    lhs = Expr::Mul(Box::new(lhs), Box::new(self.unary(params)?));
                }
                Tok::Slash => {
                    self.advance();
                    lhs = Expr::Div(Box::new(lhs), Box::new(self.unary(params)?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    /// Every operand, nested or not, passes through here, so this is
    /// where the operand budget is spent.
    fn unary(&mut self, params: &[String]) -> Result<Expr, QasmError> {
        if self.operands_left == 0 {
            let what = format!("angle expression of more than {MAX_EXPR_OPERANDS} operands");
            return Err(self.err_at(self.peek(), QasmErrorKind::Unsupported(what)));
        }
        self.operands_left -= 1;
        if self.peek().tok == Tok::Minus {
            self.advance();
            return Ok(Expr::Neg(Box::new(self.unary(params)?)));
        }
        self.power(params)
    }

    fn power(&mut self, params: &[String]) -> Result<Expr, QasmError> {
        let base = self.primary(params)?;
        if self.peek().tok == Tok::Caret {
            self.advance();
            // Right-associative: 2^3^2 = 2^(3^2).
            let exp = self.unary(params)?;
            return Ok(Expr::Pow(Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn primary(&mut self, params: &[String]) -> Result<Expr, QasmError> {
        match self.peek().tok.clone() {
            Tok::Int(n) => {
                self.advance();
                Ok(Expr::Num(n as f64))
            }
            Tok::Real(x) => {
                self.advance();
                Ok(Expr::Num(x))
            }
            Tok::LParen => {
                self.advance();
                let e = self.expr(params)?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                let t = self.advance();
                if name == "pi" {
                    return Ok(Expr::Pi);
                }
                if let Some(i) = params.iter().position(|p| p == &name) {
                    return Ok(Expr::Param(i));
                }
                if let Some(f) = Func::lookup(&name) {
                    self.expect(&Tok::LParen, "'(' after the function name")?;
                    let arg = self.expr(params)?;
                    self.expect(&Tok::RParen, "')'")?;
                    return Ok(Expr::Func(f, Box::new(arg)));
                }
                Err(self.err_at(&t, QasmErrorKind::UnknownParameter(name)))
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    // --- top-level operations --------------------------------------------

    /// `name` or `name[index]`, returned raw (register resolution is
    /// the caller's job — `barrier` only checks existence).
    fn qarg(&mut self) -> Result<RawOperand, QasmError> {
        let (name, t) = self.expect_ident("a register operand")?;
        let index = if self.peek().tok == Tok::LBracket {
            self.advance();
            let idx = self.expect_index()?;
            self.expect(&Tok::RBracket, "']'")?;
            Some(idx)
        } else {
            None
        };
        if !self.qregs.contains_key(&name) && !self.cregs.contains_key(&name) {
            return Err(self.err_at(&t, QasmErrorKind::UnknownRegister(name)));
        }
        Ok((name, index, t))
    }

    /// Resolves one quantum operand against the declared `qreg`s.
    fn quantum_operand(&mut self) -> Result<Operand, QasmError> {
        let (name, index, t) = self.qarg()?;
        let Some(&(offset, size)) = self.qregs.get(&name) else {
            return Err(self.err_at(&t, QasmErrorKind::UnknownRegister(name)));
        };
        match index {
            None => Ok(Operand::Reg { offset, size }),
            Some((i, it)) => {
                if i >= size {
                    return Err(self.err_at(
                        &it,
                        QasmErrorKind::IndexOutOfRange {
                            register: name,
                            index: i,
                            size,
                        },
                    ));
                }
                Ok(Operand::One(Qubit(offset + i)))
            }
        }
    }

    fn gate_call(&mut self, name: String, t: Token) -> Result<(), QasmError> {
        let mut params = Vec::new();
        if self.peek().tok == Tok::LParen {
            self.advance();
            if self.peek().tok != Tok::RParen {
                loop {
                    let e = self.angle(&[])?;
                    params.push(e.eval(&[]));
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen, "')'")?;
        }
        let mut operands = Vec::new();
        loop {
            operands.push(self.quantum_operand()?);
            if self.peek().tok == Tok::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&Tok::Semi, "';' after the gate call")?;

        // Whole-register operands broadcast: every register operand
        // must have the same length; single sites repeat.
        let mut span: Option<u32> = None;
        for op in &operands {
            if let Operand::Reg { size, .. } = op {
                match span {
                    None => span = Some(*size),
                    Some(s) if s == *size => {}
                    Some(_) => return Err(self.err_at(&t, QasmErrorKind::BroadcastMismatch(name))),
                }
            }
        }
        let mut qubits = Vec::with_capacity(operands.len());
        for k in 0..span.unwrap_or(1) {
            qubits.clear();
            qubits.extend(operands.iter().map(|op| match *op {
                Operand::One(q) => q,
                Operand::Reg { offset, .. } => Qubit(offset + k),
            }));
            self.apply(&name, &params, &qubits, &t, 0)?;
        }
        Ok(())
    }

    /// Applies one fully resolved call — a builtin becomes a [`Gate`],
    /// a macro expands recursively (this is the lowering step that
    /// brings user-defined gates into the compiler's gate set).
    fn apply(
        &mut self,
        name: &str,
        params: &[f64],
        qubits: &[Qubit],
        t: &Token,
        depth: u32,
    ) -> Result<(), QasmError> {
        if depth > MAX_MACRO_DEPTH {
            return Err(self.err_at(t, QasmErrorKind::MacroTooDeep(name.to_string())));
        }
        if let Some(b) = Builtin::lookup(name) {
            let (np, nq) = b.arity();
            if params.len() != np {
                return Err(self.err_at(
                    t,
                    QasmErrorKind::ParamCountMismatch {
                        name: name.to_string(),
                        expected: np,
                        found: params.len(),
                    },
                ));
            }
            if qubits.len() != nq {
                return Err(self.err_at(
                    t,
                    QasmErrorKind::OperandCountMismatch {
                        name: name.to_string(),
                        expected: nq,
                        found: qubits.len(),
                    },
                ));
            }
            if let Some(g) = b.build(params, qubits) {
                self.push_gate(g, t)?;
            }
            return Ok(());
        }
        let Some(def) = self.macros.get(name).cloned() else {
            return Err(self.err_at(t, QasmErrorKind::UnknownGate(name.to_string())));
        };
        if params.len() != def.num_params {
            return Err(self.err_at(
                t,
                QasmErrorKind::ParamCountMismatch {
                    name: name.to_string(),
                    expected: def.num_params,
                    found: params.len(),
                },
            ));
        }
        if qubits.len() != def.num_qargs {
            return Err(self.err_at(
                t,
                QasmErrorKind::OperandCountMismatch {
                    name: name.to_string(),
                    expected: def.num_qargs,
                    found: qubits.len(),
                },
            ));
        }
        for call in &def.body {
            let call_params: Vec<f64> = call.params.iter().map(|e| e.eval(params)).collect();
            let call_qubits: Vec<Qubit> = call.args.iter().map(|&i| qubits[i]).collect();
            let pos = Token {
                tok: Tok::Ident(call.name.clone()),
                line: call.line,
                col: call.col,
            };
            self.apply(&call.name, &call_params, &call_qubits, &pos, depth + 1)?;
        }
        Ok(())
    }

    /// Emits one gate at `t`'s position, refusing to grow the circuit
    /// past [`MAX_GATES`].
    fn push_gate(&mut self, gate: Gate, t: &Token) -> Result<(), QasmError> {
        if self.gates.len() >= MAX_GATES {
            let what = format!("more than {MAX_GATES} gates (the import limit)");
            return Err(self.err_at(t, QasmErrorKind::Unsupported(what)));
        }
        self.gates.push((gate, t.line, t.col));
        Ok(())
    }

    fn measure(&mut self) -> Result<(), QasmError> {
        let src = self.quantum_operand()?;
        let arrow = self.peek().clone();
        self.expect(&Tok::Arrow, "'->' after the measured operand")?;
        let (cname, cindex, ct) = self.qarg()?;
        let Some(&csize) = self.cregs.get(&cname) else {
            return Err(self.err_at(&ct, QasmErrorKind::UnknownRegister(cname)));
        };
        self.expect(&Tok::Semi, "';' after the measurement")?;
        match (src, cindex) {
            (Operand::One(q), Some((i, it))) => {
                if i >= csize {
                    return Err(self.err_at(
                        &it,
                        QasmErrorKind::IndexOutOfRange {
                            register: cname,
                            index: i,
                            size: csize,
                        },
                    ));
                }
                self.push_gate(Gate::Measure(q), &arrow)
            }
            (Operand::Reg { offset, size }, None) => {
                if size != csize {
                    return Err(
                        self.err_at(&arrow, QasmErrorKind::BroadcastMismatch("measure".into()))
                    );
                }
                for k in 0..size {
                    self.push_gate(Gate::Measure(Qubit(offset + k)), &arrow)?;
                }
                Ok(())
            }
            _ => Err(self.err_at(&arrow, QasmErrorKind::BroadcastMismatch("measure".into()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qasm::to_qasm;
    use crate::sim::circuits_equivalent;

    const TOL: f64 = 1e-9;

    fn parse(src: &str) -> Circuit {
        parse_qasm(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"))
    }

    fn parse_err(src: &str) -> QasmError {
        parse_qasm(src).expect_err("expected a parse error")
    }

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    #[test]
    fn parses_the_exporter_dialect() {
        let src = format!(
            "{HEADER}qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\n\
             cu1(0.25) q[0],q[2];\nccx q[0],q[1],q[2];\nmeasure q[1] -> c[1];\n"
        );
        let c = parse(&src);
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(
            c.iter().map(|g| g.name()).collect::<Vec<_>>(),
            vec!["h", "cnot", "cphase", "toffoli", "measure"]
        );
    }

    #[test]
    fn every_exported_gate_round_trips_to_the_same_variant() {
        let mut c = Circuit::new(4);
        c.x(Qubit(0))
            .y(Qubit(1))
            .z(Qubit(2))
            .h(Qubit(0))
            .s(Qubit(0))
            .sdg(Qubit(0))
            .t(Qubit(0))
            .tdg(Qubit(0))
            .rx(Qubit(1), 0.5)
            .ry(Qubit(1), -1.25)
            .rz(Qubit(1), 1e-3)
            .cnot(Qubit(0), Qubit(1))
            .cz(Qubit(1), Qubit(2))
            .cphase(Qubit(0), Qubit(3), 0.25)
            .swap(Qubit(2), Qubit(3))
            .toffoli(Qubit(0), Qubit(1), Qubit(2))
            .measure(Qubit(0));
        let back = parse(&to_qasm(&c).unwrap());
        assert_eq!(back, c);
        assert_eq!(back.fingerprint(), c.fingerprint());
    }

    #[test]
    fn ccz_round_trips_to_an_equivalent_unitary() {
        let mut c = Circuit::new(3);
        c.ccz(Qubit(0), Qubit(1), Qubit(2));
        let back = parse(&to_qasm(&c).unwrap());
        // Representation changes (H·CCX·H) but the unitary must not.
        assert_ne!(back, c);
        assert!(circuits_equivalent(&c, &back, TOL));
    }

    #[test]
    fn multiple_qregs_concatenate_in_declaration_order() {
        let src = format!("{HEADER}qreg a[2];\nqreg b[3];\nx a[1];\nx b[0];\ncx a[0],b[2];\n");
        let c = parse(&src);
        assert_eq!(c.num_qubits(), 5);
        assert_eq!(c.gates()[0], Gate::X(Qubit(1)));
        assert_eq!(c.gates()[1], Gate::X(Qubit(2)));
        assert_eq!(
            c.gates()[2],
            Gate::Cnot {
                control: Qubit(0),
                target: Qubit(4)
            }
        );
    }

    #[test]
    fn whole_register_calls_broadcast() {
        let src = format!("{HEADER}qreg q[3];\nqreg r[3];\nh q;\ncx q,r;\ncx q[0],r;\n");
        let c = parse(&src);
        // 3 h + 3 pairwise cx + 3 fixed-control cx.
        assert_eq!(c.len(), 9);
        assert_eq!(
            c.gates()[4],
            Gate::Cnot {
                control: Qubit(1),
                target: Qubit(4)
            }
        );
        assert_eq!(
            c.gates()[8],
            Gate::Cnot {
                control: Qubit(0),
                target: Qubit(5)
            }
        );
    }

    #[test]
    fn measure_broadcast_requires_equal_sizes() {
        let ok = format!("{HEADER}qreg q[2];\ncreg c[2];\nmeasure q -> c;\n");
        let c = parse(&ok);
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(Gate::is_measure));

        let bad = format!("{HEADER}qreg q[2];\ncreg c[3];\nmeasure q -> c;\n");
        assert_eq!(
            parse_err(&bad).kind,
            QasmErrorKind::BroadcastMismatch("measure".into())
        );
    }

    #[test]
    fn gate_macros_expand_through_builtins_and_other_macros() {
        let src = format!(
            "{HEADER}qreg q[3];\n\
             gate majority a,b,c {{ cx c,b; cx c,a; ccx a,b,c; }}\n\
             gate twice a,b,c {{ majority a,b,c; majority a,b,c; }}\n\
             twice q[0],q[1],q[2];\n"
        );
        let c = parse(&src);
        assert_eq!(c.len(), 6);
        assert_eq!(c.gates()[2].name(), "toffoli");
        assert_eq!(c.gates()[5].name(), "toffoli");
    }

    #[test]
    fn macro_params_evaluate_with_pi_arithmetic() {
        let src = format!(
            "{HEADER}qreg q[1];\n\
             gate phase(t) a {{ rz(t/2) a; rz(-t/2) a; rz(t) a; }}\n\
             phase(pi/2) q[0];\nrx(2*pi) q[0];\nry(-pi/4) q[0];\n"
        );
        let c = parse(&src);
        let angles: Vec<f64> = c
            .iter()
            .filter_map(|g| match g {
                Gate::Rz(_, a) | Gate::Rx(_, a) | Gate::Ry(_, a) => Some(*a),
                _ => None,
            })
            .collect();
        let pi = std::f64::consts::PI;
        let expected = [pi / 4.0, -pi / 4.0, pi / 2.0, 2.0 * pi, -pi / 4.0];
        for (a, e) in angles.iter().zip(expected) {
            assert!((a - e).abs() < 1e-15, "{a} != {e}");
        }
    }

    #[test]
    fn expression_functions_and_power_evaluate() {
        let src =
            format!("{HEADER}qreg q[1];\nrz(cos(0)) q[0];\nrz(2^3) q[0];\nrz(sqrt(4)) q[0];\n");
        let c = parse(&src);
        let angles: Vec<f64> = c
            .iter()
            .filter_map(|g| match g {
                Gate::Rz(_, a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(angles, vec![1.0, 8.0, 2.0]);
    }

    #[test]
    fn u1_imports_as_rz_and_id_as_noop() {
        let src = format!("{HEADER}qreg q[2];\nid q[0];\nu1(0.75) q[1];\n");
        let c = parse(&src);
        assert_eq!(c.gates(), &[Gate::Rz(Qubit(1), 0.75)]);
    }

    #[test]
    fn barriers_parse_and_vanish() {
        let src = format!(
            "{HEADER}qreg q[2];\nh q[0];\nbarrier q;\nbarrier q[0],q[1];\ncx q[0],q[1];\n\
             gate b2 a,b {{ cx a,b; barrier a,b; cx a,b; }}\nb2 q[0],q[1];\n"
        );
        let c = parse(&src);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_err(&format!("{HEADER}qreg q[2];\nfoo q[0];\n"));
        assert_eq!(err.kind, QasmErrorKind::UnknownGate("foo".into()));
        assert_eq!((err.line, err.column), (4, 1));

        let err = parse_err(&format!("{HEADER}qreg q[2];\nh q[5];\n"));
        assert_eq!(
            err.kind,
            QasmErrorKind::IndexOutOfRange {
                register: "q".into(),
                index: 5,
                size: 2
            }
        );
        assert_eq!((err.line, err.column), (4, 5));

        let err = parse_err(&format!("{HEADER}qreg q[2];\ncx q[0];\n"));
        assert_eq!(
            err.kind,
            QasmErrorKind::OperandCountMismatch {
                name: "cx".into(),
                expected: 2,
                found: 1
            }
        );

        let err = parse_err(&format!("{HEADER}qreg q[2];\nrz q[0];\n"));
        assert_eq!(
            err.kind,
            QasmErrorKind::ParamCountMismatch {
                name: "rz".into(),
                expected: 1,
                found: 0
            }
        );

        let err = parse_err(&format!("{HEADER}qreg q[2];\ncx q[0],q[0];\n"));
        assert!(matches!(err.kind, QasmErrorKind::InvalidGate(_)));
        assert_eq!(err.line, 4);
    }

    #[test]
    fn unsupported_statements_are_typed_errors() {
        for (stmt, what) in [
            ("reset q[0];", "\"reset\" statement"),
            ("opaque magic a;", "\"opaque\" statement"),
            ("if (c == 1) x q[0];", "\"if\" statement"),
        ] {
            let err = parse_err(&format!("{HEADER}qreg q[1];\ncreg c[1];\n{stmt}\n"));
            assert_eq!(err.kind, QasmErrorKind::Unsupported(what.into()), "{stmt}");
        }
    }

    #[test]
    fn version_and_header_are_enforced() {
        let err = parse_err("OPENQASM 3.0;\nqreg q[1];\n");
        assert_eq!(err.kind, QasmErrorKind::UnsupportedVersion("3".into()));
        let err = parse_err("qreg q[1];\n");
        assert!(matches!(err.kind, QasmErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn duplicate_definitions_are_rejected() {
        let err = parse_err(&format!("{HEADER}qreg q[1];\nqreg q[2];\n"));
        assert_eq!(err.kind, QasmErrorKind::DuplicateDefinition("q".into()));
        let err = parse_err(&format!("{HEADER}gate h a {{ }}\n"));
        assert_eq!(err.kind, QasmErrorKind::DuplicateDefinition("h".into()));
    }

    #[test]
    fn macro_bodies_may_only_call_previously_defined_gates() {
        // Forward references (and therefore recursion, mutual or
        // direct) are rejected at definition time, per the spec's
        // "previously defined gates" rule.
        let err = parse_err(&format!(
            "{HEADER}gate a x {{ b x; }}\ngate b x {{ a x; }}\n"
        ));
        assert_eq!(err.kind, QasmErrorKind::UnknownGate("b".into()));
        assert_eq!(err.line, 3);

        let err = parse_err(&format!("{HEADER}gate rec x {{ rec x; }}\n"));
        assert_eq!(err.kind, QasmErrorKind::UnknownGate("rec".into()));
    }

    #[test]
    fn unknown_identifier_in_expression_is_an_error() {
        let err = parse_err(&format!("{HEADER}qreg q[1];\nrz(theta) q[0];\n"));
        assert_eq!(err.kind, QasmErrorKind::UnknownParameter("theta".into()));
    }

    #[test]
    fn empty_program_parses_to_empty_circuit() {
        let c = parse("OPENQASM 2.0;\n");
        assert_eq!(c.num_qubits(), 0);
        assert!(c.is_empty());
    }
}
