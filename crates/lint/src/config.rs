//! Parser for `LOCKS.toml` — a deliberate TOML subset (comments, table
//! arrays `[[class]]`, string/bool/integer values, and string arrays that
//! may span lines). Hand-rolled for the same reason the lexer is: the
//! linter must build without a crates registry.

/// One acquisition pattern: either `recv.method` (field receiver) or a
/// bare callable name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    Method { recv: String, method: String },
    Bare(String),
}

impl Pattern {
    pub fn parse(s: &str) -> Pattern {
        match s.split_once('.') {
            Some((recv, method)) => Pattern::Method {
                recv: recv.to_string(),
                method: method.to_string(),
            },
            None => Pattern::Bare(s.to_string()),
        }
    }
}

#[derive(Debug, Clone)]
pub struct LockClass {
    pub name: String,
    pub level: i64,
    pub ordered: bool,
    pub allow_io: bool,
    pub acquire: Vec<Pattern>,
    pub release: Vec<Pattern>,
    /// Repo-relative paths (forward slashes) the patterns are scoped to.
    pub files: Vec<String>,
}

#[derive(Debug, Default)]
pub struct Config {
    pub version: i64,
    pub classes: Vec<LockClass>,
}

impl Config {
    /// Classes whose `files` list contains `rel_path`.
    pub fn classes_for<'a>(&'a self, rel_path: &str) -> Vec<(usize, &'a LockClass)> {
        self.classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.files.iter().any(|f| f == rel_path))
            .collect()
    }
}

enum Section {
    Top,
    Class(LockClass),
}

pub fn parse(src: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut cur = Section::Top;
    let mut lines = src.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut cfg, std::mem::replace(&mut cur, Section::Top))?;
            cur = match line.as_str() {
                "[[class]]" => Section::Class(LockClass {
                    name: String::new(),
                    level: -1,
                    ordered: false,
                    allow_io: false,
                    acquire: Vec::new(),
                    release: Vec::new(),
                    files: Vec::new(),
                }),
                _ => return Err(format!("LOCKS.toml:{}: unsupported table {line}", ln + 1)),
            };
            continue;
        }
        let (key, mut val) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| format!("LOCKS.toml:{}: expected `key = value`", ln + 1))?;
        // A string array may span lines: accumulate until brackets balance.
        if val.starts_with('[') {
            while val.matches('[').count() > val.matches(']').count() {
                let (_, next) = lines
                    .next()
                    .ok_or_else(|| format!("LOCKS.toml:{}: unterminated array", ln + 1))?;
                val.push(' ');
                val.push_str(strip_comment(next).trim());
            }
        }
        match &mut cur {
            Section::Top => match key.as_str() {
                "version" => cfg.version = parse_int(&val, ln)?,
                other => {
                    return Err(format!(
                        "LOCKS.toml:{}: unknown top-level key {other}",
                        ln + 1
                    ))
                }
            },
            Section::Class(c) => match key.as_str() {
                "name" => c.name = parse_str(&val, ln)?,
                "level" => c.level = parse_int(&val, ln)?,
                "ordered" => c.ordered = parse_bool(&val, ln)?,
                "allow_io" => c.allow_io = parse_bool(&val, ln)?,
                "acquire" => c.acquire = parse_patterns(&val, ln)?,
                "release" => c.release = parse_patterns(&val, ln)?,
                "files" => c.files = parse_str_array(&val, ln)?,
                other => return Err(format!("LOCKS.toml:{}: unknown class key {other}", ln + 1)),
            },
        }
    }
    flush(&mut cfg, cur)?;
    // Global sanity: unique names, unique levels.
    for (i, a) in cfg.classes.iter().enumerate() {
        for b in &cfg.classes[i + 1..] {
            if a.name == b.name {
                return Err(format!("LOCKS.toml: duplicate class name {}", a.name));
            }
            if a.level == b.level {
                return Err(format!(
                    "LOCKS.toml: classes {} and {} share level {}",
                    a.name, b.name, a.level
                ));
            }
        }
    }
    Ok(cfg)
}

fn flush(cfg: &mut Config, section: Section) -> Result<(), String> {
    if let Section::Class(c) = section {
        cfg.classes.push(validate(c)?);
    }
    Ok(())
}

fn parse_patterns(v: &str, ln: usize) -> Result<Vec<Pattern>, String> {
    Ok(parse_str_array(v, ln)?
        .iter()
        .map(|s| Pattern::parse(s))
        .collect())
}

fn validate(c: LockClass) -> Result<LockClass, String> {
    if c.name.is_empty() {
        return Err("LOCKS.toml: class without a name".to_string());
    }
    if c.level < 0 {
        return Err(format!("LOCKS.toml: class {} without a level", c.name));
    }
    if c.acquire.is_empty() {
        return Err(format!(
            "LOCKS.toml: class {} without acquire patterns",
            c.name
        ));
    }
    if c.files.is_empty() {
        return Err(format!(
            "LOCKS.toml: class {} without a files scope",
            c.name
        ));
    }
    Ok(c)
}

/// Strip a `#` comment, respecting `"` string boundaries.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_int(v: &str, ln: usize) -> Result<i64, String> {
    v.parse()
        .map_err(|_| format!("LOCKS.toml:{}: expected integer, got {v}", ln + 1))
}

fn parse_bool(v: &str, ln: usize) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("LOCKS.toml:{}: expected bool, got {v}", ln + 1)),
    }
}

fn parse_str(v: &str, ln: usize) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("LOCKS.toml:{}: expected string, got {v}", ln + 1))
    }
}

fn parse_str_array(v: &str, ln: usize) -> Result<Vec<String>, String> {
    let v = v.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return Err(format!("LOCKS.toml:{}: expected array, got {v}", ln + 1));
    }
    let mut out = Vec::new();
    for item in v[1..v.len() - 1].split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_str(item, ln)?);
    }
    Ok(out)
}
