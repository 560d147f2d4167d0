//! Unified compile-time error type.

use std::fmt;

/// Any failure between reading source text and emitting machine code.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The reader rejected the text.
    Read(s1lisp_reader::ReadError),
    /// Conversion to the internal tree failed.
    Convert(s1lisp_frontend::ConvertError),
    /// Code generation failed.
    Codegen(s1lisp_codegen::CodegenError),
    /// A guarded-compilation validator rejected the tree (well-formedness
    /// or back-translation round trip).
    Guard(crate::guard::GuardError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Read(e) => write!(f, "{e}"),
            CompileError::Convert(e) => write!(f, "{e}"),
            CompileError::Codegen(e) => write!(f, "{e}"),
            CompileError::Guard(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Read(e) => Some(e),
            CompileError::Convert(e) => Some(e),
            CompileError::Codegen(e) => Some(e),
            CompileError::Guard(e) => Some(e),
        }
    }
}

impl From<s1lisp_reader::ReadError> for CompileError {
    fn from(e: s1lisp_reader::ReadError) -> CompileError {
        CompileError::Read(e)
    }
}

impl From<s1lisp_frontend::ConvertError> for CompileError {
    fn from(e: s1lisp_frontend::ConvertError) -> CompileError {
        CompileError::Convert(e)
    }
}

impl From<s1lisp_codegen::CodegenError> for CompileError {
    fn from(e: s1lisp_codegen::CodegenError) -> CompileError {
        CompileError::Codegen(e)
    }
}

impl From<crate::guard::GuardError> for CompileError {
    fn from(e: crate::guard::GuardError) -> CompileError {
        CompileError::Guard(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_wrap_inner_errors() {
        let e = CompileError::Read(s1lisp_reader::ReadError {
            message: "oops".into(),
            line: 3,
            column: 4,
        });
        assert!(e.to_string().contains("3:4"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
