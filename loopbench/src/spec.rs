//! A kernel the benchmark compiles: its inputs, outputs and CIN program,
//! built only from the public `finch` API, plus the answer it must give.

use finch::{CinStmt, CompiledKernel, Kernel, LevelSpec, Tensor};

/// An output binding.
#[derive(Debug, Clone)]
pub enum Out {
    /// A scalar result.
    Scalar(String),
    /// A dense result of the given shape, initialised to zero.
    Dense(String, Vec<usize>),
    /// A result assembled in the given per-level formats.
    Format(String, Vec<LevelSpec>),
}

/// Everything needed to compile a kernel again from scratch.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Input tensors, bound in order.
    pub inputs: Vec<Tensor>,
    /// Output bindings.
    pub outputs: Vec<Out>,
    /// The CIN program.
    pub program: CinStmt,
    /// The output whose value is checked.
    pub checked: String,
}

impl Spec {
    /// A fresh, fully bound [`Kernel`] ready for `compile` (binding is not
    /// part of compile time).
    pub fn kernel(&self) -> Kernel {
        let mut k = Kernel::new();
        for t in &self.inputs {
            k.bind_input(t);
        }
        for o in &self.outputs {
            match o {
                Out::Scalar(name) => k.bind_output_scalar(name),
                Out::Dense(name, shape) => k.bind_output(name, shape, 0.0),
                Out::Format(name, specs) => k.bind_output_format(name, specs),
            };
        }
        k
    }

    /// Compile the kernel.
    pub fn compile(&self) -> Result<CompiledKernel, finch::CompileError> {
        self.kernel().compile(&self.program)
    }
}

/// How closely an output must match its reference.
#[derive(Debug, Clone, Copy)]
pub enum Tol {
    /// Bit-for-bit.
    Exact,
    /// `|got - want| <= rel * max(1, |want|)` element-wise.
    Rel(f64),
}

/// Whether `got` matches `want` under `tol` (lengths must agree; NaN never
/// matches).
pub fn matches(got: &[f64], want: &[f64], tol: Tol) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(&g, &w)| match tol {
            Tol::Exact => g.to_bits() == w.to_bits(),
            Tol::Rel(r) => (g - w).abs() <= r * w.abs().max(1.0),
        })
}
