//! Tiny table model with a Markdown renderer (hand-rolled; the format
//! is trivial and this keeps the dependency footprint at the
//! pre-approved set).

#[derive(Clone, Debug, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "ragged row");
        self.rows.push(row);
    }
}

/// GitHub-flavoured Markdown rendering.
pub fn render_markdown(t: &Table) -> String {
    let mut out = String::new();
    if !t.title.is_empty() {
        out.push_str(&format!("### {}\n\n", t.title));
    }
    out.push_str(&format!("| {} |\n", t.headers.join(" | ")));
    out.push_str(&format!("|{}\n", t.headers.iter().map(|_| "---|").collect::<String>()));
    for row in &t.rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["n", "rounds"]);
        t.push(vec!["16".into(), "9".into()]);
        t.push(vec!["32".into(), "17".into()]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = render_markdown(&sample());
        assert!(md.starts_with("### Demo"));
        assert!(md.contains("| n | rounds |"));
        assert!(md.contains("| 32 | 17 |"));
        assert_eq!(md.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }
}
