#include "svm/assembler.hpp"

#include <bit>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "svm/isa.hpp"

namespace fsim::svm {

namespace {

// ---------------------------------------------------------------------------
// Operand and statement representation
// ---------------------------------------------------------------------------

struct Operand {
  enum class Kind { kReg, kImm, kMem, kSym } kind = Kind::kImm;
  unsigned reg = 0;        // kReg, or base register of kMem
  std::int64_t imm = 0;    // kImm, or offset of kMem
  std::string sym;         // kSym
};

struct Stmt {
  int line = 0;
  Segment segment = Segment::kText;
  std::uint32_t offset = 0;  // within segment
  std::string mnem;
  std::vector<Operand> ops;
  std::uint32_t size = 0;  // bytes emitted
  // Data payloads (directives) are materialised during pass 1:
  std::vector<std::byte> data;
  bool is_data = false;
  // Data relocations: `.word symbol` entries patched in pass 2 once the
  // layout is fixed: {byte offset within `data`, symbol name}.
  std::vector<std::pair<std::uint32_t, std::string>> relocs;
};

bool is_code_segment(Segment s) {
  return s == Segment::kText || s == Segment::kLibText;
}

bool is_bss_segment(Segment s) {
  return s == Segment::kBss || s == Segment::kLibBss;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

std::string strip(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Remove comments, respecting string literals.
std::string strip_comment(std::string_view line) {
  bool in_str = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) in_str = !in_str;
    if (!in_str && (c == ';' || c == '#')) return std::string(line.substr(0, i));
  }
  return std::string(line);
}

/// Split an operand list on commas at top level (not inside brackets/strings).
std::vector<std::string> split_operands(const std::string& s, int line) {
  std::vector<std::string> out;
  int depth = 0;
  bool in_str = false;
  std::string cur;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"' && (i == 0 || s[i - 1] != '\\')) in_str = !in_str;
    if (!in_str) {
      if (c == '[') ++depth;
      if (c == ']') --depth;
      if (c == ',' && depth == 0) {
        out.push_back(strip(cur));
        cur.clear();
        continue;
      }
    }
    cur += c;
  }
  if (!strip(cur).empty()) out.push_back(strip(cur));
  if (depth != 0) throw AsmError(line, "unbalanced brackets");
  return out;
}

std::optional<unsigned> parse_register(const std::string& tok) {
  if (tok == "sp") return kSp;
  if (tok == "fp") return kFp;
  if (tok.size() >= 2 && (tok[0] == 'r' || tok[0] == 'R')) {
    char* end = nullptr;
    long v = std::strtol(tok.c_str() + 1, &end, 10);
    if (end && *end == '\0' && v >= 0 && v < static_cast<long>(kNumGpr))
      return static_cast<unsigned>(v);
  }
  return std::nullopt;
}

std::optional<std::int64_t> parse_integer(const std::string& tok) {
  if (tok.empty()) return std::nullopt;
  if (tok.size() == 3 && tok.front() == '\'' && tok.back() == '\'')
    return static_cast<std::int64_t>(tok[1]);
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 0);
  if (end && *end == '\0' && end != tok.c_str()) return v;
  return std::nullopt;
}

bool is_identifier(const std::string& tok) {
  if (tok.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(tok[0])) && tok[0] != '_')
    return false;
  for (char c : tok)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.')
      return false;
  return true;
}

Operand parse_operand(const std::string& tok, int line) {
  Operand op;
  if (auto r = parse_register(tok)) {
    op.kind = Operand::Kind::kReg;
    op.reg = *r;
    return op;
  }
  if (auto v = parse_integer(tok)) {
    op.kind = Operand::Kind::kImm;
    op.imm = *v;
    return op;
  }
  if (tok.size() >= 2 && tok.front() == '[' && tok.back() == ']') {
    std::string inner = strip(tok.substr(1, tok.size() - 2));
    // forms: reg | reg+imm | reg-imm
    std::size_t split = inner.find_first_of("+-", 1);
    std::string reg_tok = split == std::string::npos ? inner : strip(inner.substr(0, split));
    auto r = parse_register(reg_tok);
    if (!r) throw AsmError(line, "bad base register in '" + tok + "'");
    op.kind = Operand::Kind::kMem;
    op.reg = *r;
    op.imm = 0;
    if (split != std::string::npos) {
      auto v = parse_integer(strip(inner.substr(split)));
      if (!v) throw AsmError(line, "bad offset in '" + tok + "'");
      op.imm = *v;
    }
    return op;
  }
  if (is_identifier(tok)) {
    op.kind = Operand::Kind::kSym;
    op.sym = tok;
    return op;
  }
  throw AsmError(line, "cannot parse operand '" + tok + "'");
}

// ---------------------------------------------------------------------------
// String literal decoding for .asciz
// ---------------------------------------------------------------------------

std::vector<std::byte> decode_string(const std::string& tok, int line) {
  if (tok.size() < 2 || tok.front() != '"' || tok.back() != '"')
    throw AsmError(line, ".asciz expects a quoted string");
  std::vector<std::byte> out;
  for (std::size_t i = 1; i + 1 < tok.size(); ++i) {
    char c = tok[i];
    if (c == '\\' && i + 2 < tok.size()) {
      ++i;
      switch (tok[i]) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case '0': c = '\0'; break;
        case '\\': c = '\\'; break;
        case '"': c = '"'; break;
        default: throw AsmError(line, std::string("unknown escape \\") + tok[i]);
      }
    }
    out.push_back(static_cast<std::byte>(c));
  }
  out.push_back(std::byte{0});
  return out;
}

// ---------------------------------------------------------------------------
// Mnemonic -> opcode, from the opcode table
// ---------------------------------------------------------------------------

const std::map<std::string, Op>& instr_table() {
  static const std::map<std::string, Op> table = [] {
    std::map<std::string, Op> t;
    for (unsigned byte = 0; byte < 256; ++byte) {
      const Op op = static_cast<Op>(byte);
      if (op_info(op).valid()) t.emplace(op_info(op).name, op);
    }
    return t;
  }();
  return table;
}

// ---------------------------------------------------------------------------
// Assembler proper
// ---------------------------------------------------------------------------

class Assembler {
 public:
  Program run(std::string_view source) {
    pass1(source);
    layout();
    pass2();
    return std::move(program_);
  }

 private:
  struct Label {
    Segment segment;
    std::uint32_t offset;
    int line;
  };

  // --- Pass 1: parse lines, size statements, collect labels ---
  void pass1(std::string_view source) {
    std::istringstream in{std::string(source)};
    std::string raw;
    int line = 0;
    while (std::getline(in, raw)) {
      ++line;
      std::string text = strip(strip_comment(raw));
      while (!text.empty()) {
        // Labels: leading identifiers terminated by ':'.
        const std::size_t colon = text.find(':');
        std::size_t first_space = text.find_first_of(" \t");
        if (colon != std::string::npos &&
            (first_space == std::string::npos || colon < first_space)) {
          std::string name = strip(text.substr(0, colon));
          if (!is_identifier(name))
            throw AsmError(line, "bad label name '" + name + "'");
          // User and library translation units are separate binaries in the
          // paper's model, so the same name may exist on both sides (that
          // is what the fault dictionary's name-collision exclusion is
          // for). Within one side a duplicate is still an error.
          for (const Label& prior : labels_[name]) {
            if (is_library_segment(prior.segment) ==
                is_library_segment(section_))
              throw AsmError(line, "duplicate label '" + name + "'");
          }
          labels_[name].push_back(Label{section_, cursor(), line});
          label_order_.push_back(name);
          text = strip(text.substr(colon + 1));
          continue;
        }
        parse_statement(text, line);
        break;
      }
    }
  }

  std::uint32_t& cursor() { return cursors_[static_cast<unsigned>(section_)]; }

  void parse_statement(const std::string& text, int line) {
    const std::size_t sp = text.find_first_of(" \t");
    std::string head = sp == std::string::npos ? text : text.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : strip(text.substr(sp));

    if (head[0] == '.') {
      directive(head, rest, line);
      return;
    }

    Stmt s;
    s.line = line;
    s.segment = section_;
    s.offset = cursor();
    s.mnem = head;
    for (const auto& tok : split_operands(rest, line))
      s.ops.push_back(parse_operand(tok, line));

    if (!is_code_segment(section_))
      throw AsmError(line, "instruction outside .text/.libtext");

    if (head == "la") {
      s.size = 8;  // lui + ori
    } else if (head == "li") {
      if (s.ops.size() != 2 || s.ops[1].kind != Operand::Kind::kImm)
        throw AsmError(line, "li expects: li rN, imm");
      const std::int64_t v = s.ops[1].imm;
      s.size = (v >= -32768 && v <= 32767) ? 4 : 8;
    } else if (head == "bgt" || head == "ble" || head == "bgtu" ||
               head == "bleu") {
      s.size = 4;
    } else {
      if (!instr_table().count(head))
        throw AsmError(line, "unknown mnemonic '" + head + "'");
      s.size = 4;
    }
    cursor() += s.size;
    stmts_.push_back(std::move(s));
  }

  void directive(const std::string& head, const std::string& rest, int line) {
    static const std::map<std::string, Segment> sections = {
        {".text", Segment::kText},     {".libtext", Segment::kLibText},
        {".data", Segment::kData},     {".libdata", Segment::kLibData},
        {".bss", Segment::kBss},       {".libbss", Segment::kLibBss},
    };
    if (auto it = sections.find(head); it != sections.end()) {
      section_ = it->second;
      return;
    }

    Stmt s;
    s.line = line;
    s.segment = section_;
    s.offset = cursor();
    s.is_data = true;

    if (head == ".align") {
      auto v = parse_integer(rest);
      if (!v || *v <= 0 || (*v & (*v - 1)))
        throw AsmError(line, ".align expects a power of two");
      const std::uint32_t aligned =
          (cursor() + static_cast<std::uint32_t>(*v) - 1) &
          ~(static_cast<std::uint32_t>(*v) - 1);
      s.size = aligned - cursor();
      if (!is_bss_segment(section_)) s.data.assign(s.size, std::byte{0});
    } else if (head == ".space") {
      auto v = parse_integer(rest);
      if (!v || *v < 0) throw AsmError(line, ".space expects a byte count");
      s.size = static_cast<std::uint32_t>(*v);
      if (!is_bss_segment(section_)) s.data.assign(s.size, std::byte{0});
    } else if (head == ".word") {
      if (is_bss_segment(section_))
        throw AsmError(line, ".word not allowed in BSS (use .space)");
      for (const auto& tok : split_operands(rest, line)) {
        auto v = parse_integer(tok);
        if (!v) {
          // `.word symbol`: a data relocation, resolved in pass 2.
          if (!is_identifier(tok))
            throw AsmError(line,
                           ".word expects integers or symbols, got '" + tok + "'");
          s.relocs.emplace_back(static_cast<std::uint32_t>(s.data.size()), tok);
          v = 0;
        }
        const std::uint32_t u = static_cast<std::uint32_t>(*v);
        for (int i = 0; i < 4; ++i)
          s.data.push_back(static_cast<std::byte>((u >> (8 * i)) & 0xff));
      }
      s.size = static_cast<std::uint32_t>(s.data.size());
    } else if (head == ".f64") {
      if (is_bss_segment(section_))
        throw AsmError(line, ".f64 not allowed in BSS");
      for (const auto& tok : split_operands(rest, line)) {
        char* end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0')
          throw AsmError(line, ".f64 expects numbers, got '" + tok + "'");
        const std::uint64_t u = std::bit_cast<std::uint64_t>(d);
        for (int i = 0; i < 8; ++i)
          s.data.push_back(static_cast<std::byte>((u >> (8 * i)) & 0xff));
      }
      s.size = static_cast<std::uint32_t>(s.data.size());
    } else if (head == ".asciz") {
      if (is_bss_segment(section_))
        throw AsmError(line, ".asciz not allowed in BSS");
      s.data = decode_string(rest, line);
      s.size = static_cast<std::uint32_t>(s.data.size());
    } else {
      throw AsmError(line, "unknown directive '" + head + "'");
    }
    cursor() += s.size;
    stmts_.push_back(std::move(s));
  }

  // --- Layout: fix absolute addresses once all sizes are known ---
  void layout() {
    std::array<std::uint32_t, kNumSegments> sizes{};
    for (unsigned i = 0; i < kNumSegments; ++i) sizes[i] = cursors_[i];
    // Heap/stack capacities do not influence the static bases.
    bases_ = compute_segment_bases(sizes, 1);
    program_.set_bases(bases_);
    for (unsigned i = 0; i < kNumSegments; ++i) {
      const Segment seg = static_cast<Segment>(i);
      program_.declare_size(seg, sizes[i]);
      if (!is_bss_segment(seg) && seg != Segment::kHeap &&
          seg != Segment::kStack)
        program_.image(seg).assign(sizes[i], std::byte{0});
    }
    // Materialise symbols with nm-style sizes (distance to the next label in
    // the same segment, or to the end of the segment).
    for (const auto& [name, defs] : labels_) {
      for (const Label& lab : defs) {
        std::uint32_t end = cursors_[static_cast<unsigned>(lab.segment)];
        for (const auto& [other_name, other_defs] : labels_) {
          for (const Label& other : other_defs) {
            if (other.segment == lab.segment && other.offset > lab.offset)
              end = std::min(end, other.offset);
          }
        }
        Symbol sym;
        sym.name = name;
        sym.segment = lab.segment;
        sym.address = bases_[static_cast<unsigned>(lab.segment)] + lab.offset;
        sym.size = end - lab.offset;
        program_.add_symbol(std::move(sym));
      }
    }
  }

  /// Resolve a symbol reference from code in `from_segment`. A reference
  /// prefers the definition on its own side (user code binds to user
  /// symbols), falling back to the other side — this is how a user call to
  /// MPI_Send reaches the library while a user "buffer" shadows the
  /// library's.
  Addr label_address(const std::string& name, int line,
                     Segment from_segment) const {
    auto it = labels_.find(name);
    if (it == labels_.end() || it->second.empty())
      throw AsmError(line, "undefined symbol '" + name + "'");
    const bool want_lib = is_library_segment(from_segment);
    const Label* fallback = nullptr;
    for (const Label& lab : it->second) {
      if (is_library_segment(lab.segment) == want_lib)
        return bases_[static_cast<unsigned>(lab.segment)] + lab.offset;
      fallback = &lab;
    }
    return bases_[static_cast<unsigned>(fallback->segment)] +
           fallback->offset;
  }

  // --- Pass 2: encode instructions and copy data payloads ---
  void pass2() {
    for (const auto& s : stmts_) {
      if (s.is_data) {
        if (!s.data.empty()) {
          auto& img = program_.image(s.segment);
          FSIM_CHECK(s.offset + s.data.size() <= img.size());
          std::memcpy(img.data() + s.offset, s.data.data(), s.data.size());
          for (const auto& [off, name] : s.relocs) {
            const Addr a = label_address(name, s.line, s.segment);
            std::memcpy(img.data() + s.offset + off, &a, 4);
          }
        }
        continue;
      }
      encode_stmt(s);
    }
  }

  void emit32(const Stmt& s, std::uint32_t off, std::uint32_t word) {
    auto& img = program_.image(s.segment);
    std::memcpy(img.data() + off, &word, 4);
  }

  static unsigned expect_reg(const Stmt& s, std::size_t i) {
    if (i >= s.ops.size() || s.ops[i].kind != Operand::Kind::kReg)
      throw AsmError(s.line, s.mnem + ": operand " + std::to_string(i + 1) +
                                 " must be a register");
    return s.ops[i].reg;
  }

  static std::int64_t expect_imm(const Stmt& s, std::size_t i) {
    if (i >= s.ops.size() || s.ops[i].kind != Operand::Kind::kImm)
      throw AsmError(s.line, s.mnem + ": operand " + std::to_string(i + 1) +
                                 " must be an immediate");
    return s.ops[i].imm;
  }

  static const Operand& expect_mem(const Stmt& s, std::size_t i) {
    if (i >= s.ops.size() || s.ops[i].kind != Operand::Kind::kMem)
      throw AsmError(s.line, s.mnem + ": operand " + std::to_string(i + 1) +
                                 " must be a memory reference [reg+imm]");
    return s.ops[i];
  }

  static std::uint16_t check_simm16(const Stmt& s, std::int64_t v) {
    if (v < -32768 || v > 32767)
      throw AsmError(s.line, s.mnem + ": immediate " + std::to_string(v) +
                                 " out of signed 16-bit range");
    return static_cast<std::uint16_t>(v);
  }

  static std::uint16_t check_uimm16(const Stmt& s, std::int64_t v) {
    if (v < 0 || v > 65535)
      throw AsmError(s.line, s.mnem + ": immediate " + std::to_string(v) +
                                 " out of unsigned 16-bit range");
    return static_cast<std::uint16_t>(v);
  }

  std::uint16_t rel_offset(const Stmt& s, std::uint32_t instr_off,
                           const Operand& target) const {
    Addr dest;
    if (target.kind == Operand::Kind::kSym) {
      dest = label_address(target.sym, s.line, s.segment);
    } else if (target.kind == Operand::Kind::kImm) {
      dest = static_cast<Addr>(target.imm);
    } else {
      throw AsmError(s.line, s.mnem + ": branch target must be a label");
    }
    const Addr here = bases_[static_cast<unsigned>(s.segment)] + instr_off;
    const std::int64_t delta = static_cast<std::int64_t>(dest) -
                               (static_cast<std::int64_t>(here) + 4);
    if (delta % 4 != 0)
      throw AsmError(s.line, "branch target not instruction-aligned");
    return check_simm16(s, delta / 4);
  }

  void encode_stmt(const Stmt& s) {
    // Pseudo-instructions first.
    if (s.mnem == "la") {
      const unsigned rd = expect_reg(s, 0);
      if (s.ops.size() != 2 || s.ops[1].kind != Operand::Kind::kSym)
        throw AsmError(s.line, "la expects: la rN, symbol");
      const Addr a = label_address(s.ops[1].sym, s.line, s.segment);
      emit32(s, s.offset, encode(Op::kLui, rd, 0, (a >> 16) & 0xffff));
      emit32(s, s.offset + 4, encode(Op::kOri, rd, rd, a & 0xffff));
      return;
    }
    if (s.mnem == "li") {
      const unsigned rd = expect_reg(s, 0);
      const std::int64_t v = expect_imm(s, 1);
      if (s.size == 4) {
        emit32(s, s.offset, encode(Op::kLdi, rd, 0, static_cast<std::uint16_t>(v)));
      } else {
        const std::uint32_t u = static_cast<std::uint32_t>(v);
        emit32(s, s.offset, encode(Op::kLui, rd, 0, (u >> 16) & 0xffff));
        emit32(s, s.offset + 4, encode(Op::kOri, rd, rd, u & 0xffff));
      }
      return;
    }
    if (s.mnem == "bgt" || s.mnem == "ble" || s.mnem == "bgtu" ||
        s.mnem == "bleu") {
      // bgt a,b == blt b,a ; ble a,b == bge b,a (swap the compared regs).
      const Op op = (s.mnem == "bgt")    ? Op::kBlt
                    : (s.mnem == "ble")  ? Op::kBge
                    : (s.mnem == "bgtu") ? Op::kBltu
                                         : Op::kBgeu;
      const unsigned ra = expect_reg(s, 0);
      const unsigned rb = expect_reg(s, 1);
      if (s.ops.size() != 3) throw AsmError(s.line, s.mnem + " needs a target");
      emit32(s, s.offset, encode(op, rb, ra, rel_offset(s, s.offset, s.ops[2])));
      return;
    }

    const Op op = instr_table().at(s.mnem);
    std::uint32_t word = 0;
    switch (op_info(op).fmt) {
      case Fmt::kNone:
        if (!s.ops.empty()) throw AsmError(s.line, s.mnem + " takes no operands");
        word = encode(op);
        break;
      case Fmt::kR:
        word = encode(op, expect_reg(s, 0));
        break;
      case Fmt::kRR:
        word = encode(op, expect_reg(s, 0), expect_reg(s, 1));
        break;
      case Fmt::kR3: {
        const unsigned a = expect_reg(s, 0), b = expect_reg(s, 1), c = expect_reg(s, 2);
        word = encode(op, a, b, c);
        break;
      }
      case Fmt::kRI: {
        const unsigned a = expect_reg(s, 0);
        word = encode(op, a, 0, check_simm16(s, expect_imm(s, 1)));
        break;
      }
      case Fmt::kRU: {
        const unsigned a = expect_reg(s, 0);
        word = encode(op, a, 0, check_uimm16(s, expect_imm(s, 1)));
        break;
      }
      case Fmt::kRRI: {
        const unsigned a = expect_reg(s, 0), b = expect_reg(s, 1);
        word = encode(op, a, b, check_simm16(s, expect_imm(s, 2)));
        break;
      }
      case Fmt::kRRU: {
        const unsigned a = expect_reg(s, 0), b = expect_reg(s, 1);
        word = encode(op, a, b, check_uimm16(s, expect_imm(s, 2)));
        break;
      }
      case Fmt::kLoad: {
        const unsigned a = expect_reg(s, 0);
        const Operand& m = expect_mem(s, 1);
        word = encode(op, a, m.reg, check_simm16(s, m.imm));
        break;
      }
      case Fmt::kStore: {
        const Operand& m = expect_mem(s, 0);
        const unsigned a = expect_reg(s, 1);
        word = encode(op, a, m.reg, check_simm16(s, m.imm));
        break;
      }
      case Fmt::kFMem: {
        const Operand& m = expect_mem(s, 0);
        word = encode(op, 0, m.reg, check_simm16(s, m.imm));
        break;
      }
      case Fmt::kBranch: {
        const unsigned a = expect_reg(s, 0), b = expect_reg(s, 1);
        if (s.ops.size() != 3) throw AsmError(s.line, s.mnem + " needs a target");
        word = encode(op, a, b, rel_offset(s, s.offset, s.ops[2]));
        break;
      }
      case Fmt::kJump: {
        if (s.ops.size() != 1) throw AsmError(s.line, s.mnem + " needs a target");
        word = encode(op, 0, 0, rel_offset(s, s.offset, s.ops[0]));
        break;
      }
      case Fmt::kImm: {
        const std::int64_t v = s.ops.empty() ? 0 : expect_imm(s, 0);
        word = encode(op, 0, 0, check_uimm16(s, v));
        break;
      }
    }
    emit32(s, s.offset, word);
  }

  Segment section_ = Segment::kText;
  std::array<std::uint32_t, kNumSegments> cursors_{};
  std::array<Addr, kNumSegments> bases_{};
  std::map<std::string, std::vector<Label>> labels_;
  std::vector<std::string> label_order_;
  std::vector<Stmt> stmts_;
  Program program_;
};

}  // namespace

Program assemble(std::string_view source) {
  Assembler a;
  return a.run(source);
}

Program assemble_units(const std::vector<std::string>& units) {
  std::string all;
  for (const auto& u : units) {
    all += u;
    all += "\n.text\n";  // reset section between units
  }
  return assemble(all);
}

}  // namespace fsim::svm
