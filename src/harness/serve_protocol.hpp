/**
 * @file
 * Wire protocol of the advisor serving daemon (`ebm-advised`): single-
 * line text verbs carried in EBS1 frames (common/wire.hpp — the one
 * shared framing implementation, also used by the same-host lease
 * fabric and the serving benches).
 *
 * Payloads are single-line UTF-8 text, one request or response per
 * frame:
 *
 *   requests:   PING
 *               STATS
 *               SHUTDOWN
 *               ADVISE <APP> <APP> [OBJ WS|FI|HS] [WAIT <ms>]
 *               PAIR <APP> <APP> <APP>... [OBJ ...] [WAIT <ms>]
 *               POLL <ticket>
 *   responses:  OK <verb-specific fields>
 *               PENDING ticket=<id> ...
 *               ERROR <code> <message>
 *
 * The STATS reply ends with the RuntimeConfig settings as
 * EBM_NAME=value tokens.
 *
 * The servefmt names below are aliases into ebm::wire, kept so the
 * daemon, its clients, and their tests read as one protocol layer
 * (and so existing includes keep compiling unchanged).
 */
#pragma once

#include "common/wire.hpp"

namespace ebm::servefmt {

using wire::kFrameMagic;
using wire::kFrameHeadBytes;
using wire::kFrameTailBytes;
using wire::kMaxPayloadBytes;

using wire::payloadChecksum;
using wire::encodeFrame;
using wire::FrameReader;
using wire::sendFrame;
using wire::recvFrame;
using wire::splitTokens;

} // namespace ebm::servefmt
