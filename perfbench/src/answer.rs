//! The content of a `query` answer, read from the server's JSON line and
//! rebuilt from the public index, so the correctness check compares what
//! the server says rather than how it spells it.

use crate::detect::fnv1a;
use oca_graph::{Cover, NodeId, Relabeling};
use oca_serve::CoverIndex;

/// A parsed JSON value: just enough JSON for the server's response lines.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON text; `None` if it is not one.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(value)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Some(x as u64),
            _ => None,
        }
    }

    fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|x| u32::try_from(x).ok())
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&b);
        self.i += usize::from(hit);
        hit
    }

    fn literal(&mut self, word: &str, value: Json) -> Option<Json> {
        self.s[self.i..].starts_with(word.as_bytes()).then(|| {
            self.i += word.len();
            value
        })
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return None;
                    }
                    fields.push((key, self.value()?));
                    if self.eat(b'}') {
                        return Some(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']') {
                        return Some(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i)?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    let ch = match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = std::str::from_utf8(self.s.get(self.i..self.i + 4)?).ok()?;
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                        }
                        other => other as char,
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

/// What a `query` answer says: the epoch, the node, and each community
/// that holds the node with its members, in input ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnswer {
    pub epoch: u64,
    pub node: u32,
    /// `(community id, members)`, by id, members ascending.
    pub communities: Vec<(u32, Vec<u32>)>,
}

impl QueryAnswer {
    /// Reads a `query` response line. `None` unless it is an `ok` query
    /// answer whose `count` and `size` fields agree with its lists.
    pub fn from_line(line: &str) -> Option<QueryAnswer> {
        let json = Json::parse(line)?;
        if json.get("ok") != Some(&Json::Bool(true))
            || json.get("op") != Some(&Json::Str("query".into()))
        {
            return None;
        }
        let Json::Arr(list) = json.get("communities")? else {
            return None;
        };
        if json.get("count")?.as_u64()? != list.len() as u64 {
            return None;
        }
        let mut communities = Vec::with_capacity(list.len());
        for c in list {
            let Json::Arr(members) = c.get("members")? else {
                return None;
            };
            if c.get("size")?.as_u64()? != members.len() as u64 {
                return None;
            }
            let members: Option<Vec<u32>> = members.iter().map(Json::as_u32).collect();
            communities.push((c.get("id")?.as_u32()?, members?));
        }
        Some(
            QueryAnswer {
                epoch: json.get("epoch")?.as_u64()?,
                node: json.get("node")?.as_u32()?,
                communities,
            }
            .canonical(),
        )
    }

    fn canonical(mut self) -> Self {
        for (_, members) in &mut self.communities {
            members.sort_unstable();
        }
        self.communities.sort_unstable();
        self
    }

    /// A fingerprint of the content, equal for equal answers.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&self.epoch.to_le_bytes());
        bytes.extend_from_slice(&self.node.to_le_bytes());
        for (id, members) in &self.communities {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&(members.len() as u32).to_le_bytes());
            for m in members {
                bytes.extend_from_slice(&m.to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }
}

/// The `query` answers the server must give, from an index built
/// in-process over a cover (compact ids).
pub struct Oracle<'a> {
    index: CoverIndex,
    cover: &'a Cover,
    relabeling: Option<&'a Relabeling>,
}

impl<'a> Oracle<'a> {
    /// Indexes `cover`.
    pub fn new(cover: &'a Cover, relabeling: Option<&'a Relabeling>) -> Self {
        Oracle {
            index: CoverIndex::build(cover),
            cover,
            relabeling,
        }
    }

    /// What the answer for input node `v` at `epoch` must say.
    pub fn answer(&self, epoch: u64, v: u32) -> QueryAnswer {
        let compact = self
            .relabeling
            .map_or(NodeId(v), |r| r.to_compact(NodeId(v)));
        let to_input = |m: NodeId| self.relabeling.map_or(m.raw(), |r| r.to_original(m).raw());
        let communities = self
            .index
            .communities_of(compact)
            .iter()
            .map(|&ci| {
                let members = self.cover.communities()[ci as usize]
                    .members()
                    .iter()
                    .map(|&m| to_input(m))
                    .collect();
                (ci, members)
            })
            .collect();
        QueryAnswer {
            epoch,
            node: v,
            communities,
        }
        .canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_answers_are_read_by_content_not_spelling() {
        let line = "{\"ok\":true,\"op\":\"query\",\"epoch\":1,\"node\":7,\"count\":2,\
                    \"communities\":[{\"id\":4,\"size\":2,\"members\":[9,7]},\
                    {\"id\":1,\"size\":3,\"members\":[1,2,7]}]}";
        let a = QueryAnswer::from_line(line).expect("a query answer");
        assert_eq!(
            a,
            QueryAnswer {
                epoch: 1,
                node: 7,
                communities: vec![(1, vec![1, 2, 7]), (4, vec![7, 9])],
            }
        );
        // Reordered keys and whitespace say the same thing.
        let respelled = "{ \"op\": \"query\", \"ok\": true, \"node\": 7, \"epoch\": 1, \
                         \"communities\": [ {\"members\": [1, 2, 7], \"size\": 3, \"id\": 1}, \
                         {\"id\": 4, \"members\": [9, 7], \"size\": 2} ], \"count\": 2 }";
        let b = QueryAnswer::from_line(respelled).expect("a query answer");
        assert_eq!(a.digest(), b.digest());
        // A different member list is a different answer.
        let other = line.replace("[9,7]", "[9,8]");
        assert_ne!(
            QueryAnswer::from_line(&other).map(|x| x.digest()),
            Some(a.digest())
        );
        // Counts that disagree with the lists, errors and other ops are
        // not query answers.
        assert_eq!(
            QueryAnswer::from_line(&line.replace("\"count\":2", "\"count\":3")),
            None
        );
        assert_eq!(
            QueryAnswer::from_line(&line.replace("\"size\":2", "\"size\":5")),
            None
        );
        assert_eq!(
            QueryAnswer::from_line("{\"ok\":false,\"error\":{\"kind\":\"internal\"}}"),
            None
        );
        assert_eq!(QueryAnswer::from_line(&line[..line.len() - 1]), None);
    }

    #[test]
    fn json_strings_and_literals_parse() {
        assert_eq!(
            Json::parse("[\"a\\\"b\\u0041\", null, false, -1.5e1]"),
            Some(Json::Arr(vec![
                Json::Str("a\"bA".into()),
                Json::Null,
                Json::Bool(false),
                Json::Num(-15.0),
            ]))
        );
        assert_eq!(Json::parse("[1,]"), None);
        assert_eq!(Json::parse("{} x"), None);
    }
}
