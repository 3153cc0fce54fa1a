// HTTP/1.1 message parsing: request framing, pipelining, keep-alive, the
// limit and error statuses, and a seeded malformed-byte fuzz of the request
// parser. Extra fuzz seeds can be supplied via DECLSCHED_HTTP_FUZZ_SEEDS
// (comma-separated integers), so a seed that reproduces a field failure
// becomes a permanent regression input just by exporting it in CI.

#include "net/http.h"

#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace declsched::net {
namespace {

using Outcome = HttpRequestParser::Outcome;

TEST(HttpRequestParserTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  parser.Feed("GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/v1/stats");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.Header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.Header("Host"), "x");
  EXPECT_EQ(parser.Next(&req), Outcome::kNeedMore);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpRequestParserTest, ParsesPostWithBody) {
  HttpRequestParser parser;
  const std::string body = R"({"tenant":1})";
  parser.Feed("POST /v1/submit HTTP/1.1\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n\r\n" + body);
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, body);
}

TEST(HttpRequestParserTest, ByteAtATimeFeeding) {
  const std::string wire =
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz";
  HttpRequestParser parser;
  HttpRequest req;
  for (size_t i = 0; i < wire.size(); ++i) {
    const Outcome outcome = parser.Next(&req);
    if (i < wire.size()) {
      EXPECT_EQ(outcome, Outcome::kNeedMore) << "at byte " << i;
    }
    parser.Feed(std::string_view(&wire[i], 1));
  }
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_EQ(req.body, "xyz");
}

TEST(HttpRequestParserTest, PipelinedRequestsComeOutInOrder) {
  HttpRequestParser parser;
  parser.Feed(
      "GET /one HTTP/1.1\r\n\r\n"
      "POST /two HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
      "GET /three HTTP/1.1\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_EQ(req.target, "/one");
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_EQ(req.target, "/two");
  EXPECT_EQ(req.body, "hi");
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_EQ(req.target, "/three");
  EXPECT_EQ(parser.Next(&req), Outcome::kNeedMore);
}

TEST(HttpRequestParserTest, KeepAliveSemantics) {
  HttpRequestParser parser;
  parser.Feed(
      "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n"
      "GET /b HTTP/1.0\r\n\r\n"
      "GET /c HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_FALSE(req.keep_alive);  // 1.1 + close
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_FALSE(req.keep_alive);  // 1.0 default
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_TRUE(req.keep_alive);  // 1.0 + keep-alive
}

TEST(HttpRequestParserTest, BareLfLineEndingsTolerated) {
  HttpRequestParser parser;
  parser.Feed("GET /x HTTP/1.1\nHost: y\n\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Outcome::kRequest);
  EXPECT_EQ(req.target, "/x");
  EXPECT_EQ(*req.Header("host"), "y");
}

TEST(HttpRequestParserTest, OversizedHeadersAre431) {
  HttpRequestParser::Limits limits;
  limits.max_header_bytes = 128;
  HttpRequestParser parser(limits);
  // No terminator in sight and already over the limit: reject without
  // buffering more.
  parser.Feed("GET /x HTTP/1.1\r\nX-Filler: " + std::string(200, 'a'));
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Outcome::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpRequestParserTest, OversizedBodyIs413) {
  HttpRequestParser::Limits limits;
  limits.max_body_bytes = 10;
  HttpRequestParser parser(limits);
  parser.Feed("POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\n");
  HttpRequest req;
  // Rejected from the declared length, before any body bytes arrive.
  ASSERT_EQ(parser.Next(&req), Outcome::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpRequestParserTest, MalformedRequestLineIs400) {
  for (const char* wire :
       {"GARBAGE\r\n\r\n", "GET\r\n\r\n", "GET /x\r\n\r\n",
        "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
        "POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n"}) {
    HttpRequestParser parser;
    parser.Feed(wire);
    HttpRequest req;
    ASSERT_EQ(parser.Next(&req), Outcome::kError) << wire;
    EXPECT_EQ(parser.error_status(), 400) << wire;
  }
}

TEST(HttpRequestParserTest, UnsupportedVersionIs505) {
  HttpRequestParser parser;
  parser.Feed("GET /x HTTP/2.0\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Outcome::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpRequestParserTest, TransferEncodingIs501) {
  HttpRequestParser parser;
  parser.Feed("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Outcome::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

std::vector<uint64_t> FuzzSeeds() {
  return testing::SeedsFromEnv("DECLSCHED_HTTP_FUZZ_SEEDS",
                               {1, 2, 3, 0xdead, 0xbeef, 0xc0ffee, 0x5eedf00d,
                                42424242});
}

/// One syntactically valid request; `body` may exceed the parser's limit
/// and header values may overflow it, so limit errors show up too.
std::string RandomRequest(Rng& rng, size_t max_body) {
  static const char* const kMethods[] = {"GET", "POST", "put", "DELETE"};
  std::string wire = std::string(kMethods[rng.UniformInt(0, 3)]) + " /p" +
                     std::to_string(rng.UniformInt(0, 999)) +
                     (rng.UniformInt(0, 1) == 0 ? " HTTP/1.1" : " HTTP/1.0");
  wire += rng.UniformInt(0, 1) == 0 ? "\r\n" : "\n";
  const int headers = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < headers; ++i) {
    wire += "X-H" + std::to_string(i) + ": " +
            std::string(static_cast<size_t>(rng.UniformInt(0, 96)), 'v') +
            "\r\n";
  }
  if (rng.UniformInt(0, 3) == 0) wire += "Connection: close\r\n";
  if (rng.UniformInt(0, 7) == 0) wire += "Transfer-Encoding: chunked\r\n";
  const size_t body = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(max_body) + 16));
  if (body > 0 || rng.UniformInt(0, 1) == 0) {
    wire += "Content-Length: " + std::to_string(body) + "\r\n";
  }
  wire += "\r\n" + std::string(body, 'b');
  return wire;
}

TEST(HttpRequestParserTest, MalformedByteFuzzHoldsTheLimits) {
  HttpRequestParser::Limits limits;
  limits.max_header_bytes = 256;
  limits.max_body_bytes = 64;
  for (const uint64_t seed : FuzzSeeds()) {
    Rng rng(seed);
    for (int round = 0; round < 300; ++round) {
      // Three stream shapes: pure noise, a pipelined burst with byte
      // mutations, and a burst truncated mid-request with noise appended.
      std::string wire;
      const int shape = static_cast<int>(rng.UniformInt(0, 2));
      if (shape == 0) {
        wire.resize(static_cast<size_t>(rng.UniformInt(1, 512)));
        for (char& b : wire) b = static_cast<char>(rng.NextU64() & 0xff);
      } else {
        const int requests = static_cast<int>(rng.UniformInt(1, 4));
        for (int i = 0; i < requests; ++i) {
          wire += RandomRequest(rng, limits.max_body_bytes);
        }
        if (shape == 1) {
          // Flip bits, or plant the bytes the grammar splits on.
          static const char kPlanted[] = {'\r', '\n', ' ', ':', '\0'};
          const int mutations = static_cast<int>(rng.UniformInt(1, 8));
          for (int i = 0; i < mutations; ++i) {
            char& b = wire[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(wire.size()) - 1))];
            if (rng.UniformInt(0, 1) == 0) {
              b ^= static_cast<char>(1 << rng.UniformInt(0, 7));
            } else {
              b = kPlanted[rng.UniformInt(0, 4)];
            }
          }
        } else {
          wire.resize(static_cast<size_t>(
              rng.UniformInt(1, static_cast<int64_t>(wire.size()))));
          for (int64_t i = rng.UniformInt(0, 64); i > 0; --i) {
            wire += static_cast<char>(rng.NextU64() & 0xff);
          }
        }
      }

      // Feed in arbitrary chunks, pulling after each like the server's
      // read loop: only complete in-limit requests, a bounded need-more,
      // or a terminal 4xx/5xx error may come out.
      HttpRequestParser parser(limits);
      bool failed = false;
      size_t off = 0;
      while (off < wire.size() && !failed) {
        const size_t n = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(wire.size() - off)));
        parser.Feed(std::string_view(wire).substr(off, n));
        off += n;
        HttpRequest req;
        for (size_t pulls = 0; pulls <= wire.size(); ++pulls) {
          const Outcome outcome = parser.Next(&req);
          if (outcome == Outcome::kRequest) {
            ASSERT_LE(req.body.size(), limits.max_body_bytes);
            ASSERT_FALSE(req.method.empty());
            ASSERT_EQ(req.target[0], '/');
            continue;
          }
          if (outcome == Outcome::kError) {
            const int status = parser.error_status();
            EXPECT_TRUE(status == 400 || status == 413 || status == 431 ||
                        status == 501 || status == 505)
                << status;
            EXPECT_FALSE(parser.error_message().empty());
            EXPECT_EQ(parser.Next(&req), Outcome::kError);  // terminal
            failed = true;
          } else {
            ASSERT_LE(parser.buffered_bytes(),
                      limits.max_header_bytes + limits.max_body_bytes);
          }
          break;
        }
      }
    }
  }
}

TEST(HttpRequestTest, PathAndQuery) {
  HttpRequest req;
  req.target = "/v1/admin/explain?protocol=edf-sql&verbose=1";
  EXPECT_EQ(req.Path(), "/v1/admin/explain");
  EXPECT_EQ(req.Query("protocol"), "edf-sql");
  EXPECT_EQ(req.Query("verbose"), "1");
  EXPECT_EQ(req.Query("absent"), "");
  req.target = "/plain";
  EXPECT_EQ(req.Path(), "/plain");
  EXPECT_EQ(req.Query("protocol"), "");
}

TEST(HttpResponseTest, SerializeSetsFramingHeaders) {
  HttpResponse response = HttpResponse::Json(200, R"({"ok":true})");
  const std::string wire = response.Serialize(/*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(wire.find("Connection: close"), std::string::npos);
  const std::string closed = response.Serialize(/*keep_alive=*/false);
  EXPECT_NE(closed.find("Connection: close\r\n"), std::string::npos);
}

TEST(HttpResponseTest, ErrorBodyShape) {
  HttpResponse response =
      HttpResponse::Error(429, "RESOURCE_EXHAUSTED", "tenant throttled");
  EXPECT_EQ(response.status, 429);
  EXPECT_NE(response.body.find("\"error\":\"RESOURCE_EXHAUSTED\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"message\":\"tenant throttled\""),
            std::string::npos);
}

TEST(HttpResponseParserTest, ParsesPipelinedResponses) {
  HttpResponseParser parser;
  parser.Feed(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
      "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n"
      "Connection: close\r\n\r\n");
  HttpResponseParser::Response response;
  ASSERT_EQ(parser.Next(&response), HttpResponseParser::Outcome::kResponse);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok");
  EXPECT_TRUE(response.keep_alive);
  ASSERT_EQ(parser.Next(&response), HttpResponseParser::Outcome::kResponse);
  EXPECT_EQ(response.status, 429);
  EXPECT_FALSE(response.keep_alive);
  EXPECT_EQ(parser.Next(&response), HttpResponseParser::Outcome::kNeedMore);
}

}  // namespace
}  // namespace declsched::net
