#include "circuit/gate.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace epg {

Gate Gate::make_emission(std::uint32_t emitter, std::uint32_t photon) {
  Gate g;
  g.kind = GateKind::emission;
  g.a = QubitId::emitter(emitter);
  g.b = QubitId::photon(photon);
  return g;
}

Gate Gate::make_ee_cz(std::uint32_t e1, std::uint32_t e2) {
  EPG_REQUIRE(e1 != e2, "ee_cz needs distinct emitters");
  Gate g;
  g.kind = GateKind::ee_cz;
  g.a = QubitId::emitter(e1);
  g.b = QubitId::emitter(e2);
  return g;
}

Gate Gate::make_ee_cnot(std::uint32_t control, std::uint32_t target) {
  EPG_REQUIRE(control != target, "ee_cnot needs distinct emitters");
  Gate g;
  g.kind = GateKind::ee_cnot;
  g.a = QubitId::emitter(control);
  g.b = QubitId::emitter(target);
  return g;
}

Gate Gate::make_local(QubitId q, Clifford1 c) {
  Gate g;
  g.kind = GateKind::local;
  g.a = q;
  g.local = c;
  return g;
}

Gate Gate::make_measure_reset(std::uint32_t emitter,
                              std::vector<PauliCorrection> if_one) {
  Gate g;
  g.kind = GateKind::measure_reset;
  g.a = QubitId::emitter(emitter);
  g.if_one = std::move(if_one);
  return g;
}

Tick Gate::duration(const HardwareModel& hw) const {
  switch (kind) {
    case GateKind::emission:
      return hw.emission_ticks;
    case GateKind::ee_cz:
    case GateKind::ee_cnot:
      return hw.ee_cnot_ticks;
    case GateKind::local: {
      if (local.is_identity()) return 0;
      const Tick unit = a.kind == QubitKind::emitter ? hw.emitter_1q_ticks
                                                     : hw.photon_1q_ticks;
      return unit * static_cast<Tick>(local.gate_string().size());
    }
    case GateKind::measure_reset:
      return hw.measure_ticks;
  }
  return 0;
}

std::string to_string(QubitId q) {
  // Appended, not "e" + to_string(...): GCC 12 flags a false -Wrestrict
  // on prepending to a temporary string.
  std::string s(1, q.kind == QubitKind::emitter ? 'e' : 'p');
  s += std::to_string(q.index);
  return s;
}

std::string Gate::str() const {
  std::ostringstream os;
  switch (kind) {
    case GateKind::emission:
      os << "emit(" << to_string(a) << "->" << to_string(b) << ')';
      break;
    case GateKind::ee_cz:
      os << "cz(" << to_string(a) << ',' << to_string(b) << ')';
      break;
    case GateKind::ee_cnot:
      os << "cnot(" << to_string(a) << ',' << to_string(b) << ')';
      break;
    case GateKind::local:
      os << local.name() << '(' << to_string(a) << ')';
      break;
    case GateKind::measure_reset: {
      os << "measure(" << to_string(a) << ')';
      if (!if_one.empty()) {
        os << "?[";
        for (std::size_t i = 0; i < if_one.size(); ++i) {
          if (i) os << ' ';
          const char* p = if_one[i].op == PauliOp::X   ? "X"
                          : if_one[i].op == PauliOp::Y ? "Y"
                                                       : "Z";
          os << p << to_string(if_one[i].target);
        }
        os << ']';
      }
      break;
    }
  }
  return os.str();
}

}  // namespace epg
