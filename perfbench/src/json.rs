//! Just enough JSON to read `BENCHMARK.json` and the result line back in
//! the benchmark's tests. Each test target uses a different part of it.
#![allow(dead_code)]

#[derive(Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> &Value {
        self.obj()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key}"))
    }
    pub fn obj(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(o) => o,
            v => panic!("not an object: {v:?}"),
        }
    }
    pub fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            v => panic!("not an array: {v:?}"),
        }
    }
    pub fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            v => panic!("not a string: {v:?}"),
        }
    }
    pub fn num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            v => panic!("not a number: {v:?}"),
        }
    }
}

pub fn parse(text: &str) -> Value {
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing text after JSON value");
    v
}

fn ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) {
    ws(b, i);
    assert_eq!(
        b.get(*i),
        Some(&c),
        "expected {:?} at byte {}",
        c as char,
        *i
    );
    *i += 1;
}

fn value(b: &[u8], i: &mut usize) -> Value {
    ws(b, i);
    match b[*i] {
        b'{' => {
            *i += 1;
            let mut o = Vec::new();
            ws(b, i);
            if b[*i] == b'}' {
                *i += 1;
                return Value::Obj(o);
            }
            loop {
                ws(b, i);
                let Value::Str(k) = value(b, i) else {
                    panic!("object key must be a string")
                };
                expect(b, i, b':');
                o.push((k, value(b, i)));
                ws(b, i);
                *i += 1;
                if b[*i - 1] == b'}' {
                    return Value::Obj(o);
                }
            }
        }
        b'[' => {
            *i += 1;
            let mut a = Vec::new();
            ws(b, i);
            if b[*i] == b']' {
                *i += 1;
                return Value::Arr(a);
            }
            loop {
                a.push(value(b, i));
                ws(b, i);
                *i += 1;
                if b[*i - 1] == b']' {
                    return Value::Arr(a);
                }
            }
        }
        b'"' => {
            *i += 1;
            let start = *i;
            while b[*i] != b'"' {
                assert_ne!(b[*i], b'\\', "escapes are not needed here");
                *i += 1;
            }
            *i += 1;
            Value::Str(String::from_utf8(b[start..*i - 1].to_vec()).expect("utf-8"))
        }
        b't' | b'f' | b'n' => {
            for (word, v) in [
                ("true", Value::Bool(true)),
                ("false", Value::Bool(false)),
                ("null", Value::Null),
            ] {
                if b[*i..].starts_with(word.as_bytes()) {
                    *i += word.len();
                    return v;
                }
            }
            panic!("bad literal at byte {}", *i)
        }
        _ => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            Value::Num(
                std::str::from_utf8(&b[start..*i])
                    .expect("ascii")
                    .parse()
                    .expect("a number"),
            )
        }
    }
}
