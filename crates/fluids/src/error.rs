//! Error type for fluid property evaluation.

/// Error returned by fallible fluid-property operations.
#[derive(Debug, Clone, PartialEq)]
pub enum FluidError {
    /// A property table was constructed with fewer than two rows.
    TableTooShort {
        /// Number of rows supplied.
        rows: usize,
    },
    /// A property table's rows are not strictly increasing in temperature.
    TableNotSorted {
        /// Index of the first out-of-order row.
        index: usize,
    },
    /// A property value was non-positive, which is unphysical for the
    /// tabulated quantities.
    NonPositiveProperty {
        /// Name of the offending property.
        property: &'static str,
        /// Index of the offending row.
        index: usize,
    },
}

impl core::fmt::Display for FluidError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::TableTooShort { rows } => {
                write!(f, "property table needs at least 2 rows, got {rows}")
            }
            Self::TableNotSorted { index } => {
                write!(
                    f,
                    "property table rows not strictly increasing at index {index}"
                )
            }
            Self::NonPositiveProperty { property, index } => {
                write!(f, "non-positive {property} in property table row {index}")
            }
        }
    }
}

impl std::error::Error for FluidError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = FluidError::TableTooShort { rows: 1 };
        let s = e.to_string();
        assert!(s.starts_with("property table"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FluidError>();
    }
}
