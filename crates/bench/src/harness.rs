//! Small shared harness: aligned text tables, JSON experiment records and
//! the mappings timing loops rotate through.

use noc_model::{Mapping, Mesh, TileId};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Directory where experiment records are written
/// (`target/experiments/`, created on demand).
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Serializes `record` as pretty JSON under `target/experiments/<name>.json`
/// and returns the path.
pub fn write_record<T: Serialize>(name: &str, record: &T) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(record).expect("record serializes");
    std::fs::write(&path, json).expect("can write experiment record");
    path
}

/// Three distinct mappings of `cores` cores on `mesh`: the identity, the
/// identity with tiles 0 and `n-1` swapped, and the identity with tiles
/// 0 and 1 swapped. A timing loop that rotates through them defeats the
/// CDCM evaluator's two-entry cost cache, so it times evaluations rather
/// than cache hits.
///
/// # Panics
///
/// Panics if `cores` exceeds the tiles of `mesh`.
pub fn rotation_mappings(mesh: &Mesh, cores: usize) -> [Mapping; 3] {
    let identity = Mapping::identity(mesh, cores).expect("cores fit mesh");
    let mut moved_to_corner = identity.clone();
    moved_to_corner.swap_tiles(TileId::new(0), TileId::new(mesh.tile_count() - 1));
    let mut first_two_swapped = identity.clone();
    first_two_swapped.swap_tiles(TileId::new(0), TileId::new(1));
    [identity, moved_to_corner, first_two_swapped]
}

/// A minimal aligned-column text table for paper-style console output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are right-padded with empty cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, cell) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, width) in widths.iter().enumerate().take(columns) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{:w$}  ", cell, w = width);
            }
            let _ = writeln!(out);
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * columns;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["short", "1"]);
        t.row(["a-much-longer-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].contains("short"));
        // Columns aligned: "1" and "22" start at the same offset.
        let off1 = lines[2].find('1').unwrap();
        let off2 = lines[3].find("22").unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn record_roundtrips_to_disk() {
        #[derive(Serialize)]
        struct R {
            x: u32,
        }
        let path = write_record("harness-selftest", &R { x: 7 });
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("\"x\": 7"));
    }
}
