package perfbench

import java.io.File

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import scala.jdk.CollectionConverters._

/** BENCHMARK.json, the metric table in [[Metrics]] and what a run prints
  * name the same metrics, workloads and units.
  */
class MetricNamesSpec extends AnyFunSuite with BeforeAndAfterAll {
  private val mapper = new ObjectMapper
  private val bench: JsonNode = mapper.readTree(new File("BENCHMARK.json"))
  private val workDir = new File("perfbench/target/test-work")
  private lazy val spark = Main.session(workDir)

  override def afterAll(): Unit = spark.stop()

  private def declared(key: String): Seq[(String, String)] =
    bench.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

  test("BENCHMARK.json declares exactly the metrics and workloads the benchmark has") {
    assert(declared("end_to_end") == Metrics.endToEnd)
    assert(declared("per_layer") == Metrics.perLayer)
    assert(bench.get("workloads").elements().asScala.map(_.get("name").asText).toSeq == Workloads.all.map(_.name))
    val setup = bench.get("end_to_end").elements().asScala.find(_.get("name").asText == "setup_s").get
    assert(setup.get("unit").asText == "s" && setup.get("better").asText == "lower")
  }

  for (w <- Workloads.all; trace <- Seq(false, true)) {
    test(s"${w.name} with trace=$trace prints every declared metric and no other") {
      val a = Main.Args(Workloads.tiny(w), seed = 3L, seconds = 0.2, trace = trace, workDir = workDir)
      val out = Main.runWorkload(spark, 0.0, a)
      val line = mapper.readTree(Metrics.resultLine(out.failed == 0, out.attempted, out.failed, trace, out.metrics))
      assert(line.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
      assert(line.get("correct").asBoolean, s"a rep differed from the Lloyd reference: ${out.summary}")
      assert(line.get("attempted").asInt >= 1 && line.get("failed").asInt == 0)
      val printed = line.get("metrics").properties().asScala.toSeq.map(e => e.getKey -> e.getValue.get("unit").asText)
      assert(printed == declared(if (trace) "per_layer" else "end_to_end"))
      assert(out.spans.nonEmpty == trace)
    }
  }

  test("a metric set that differs from the declared one is refused") {
    val values = Metrics.endToEnd.map(_._1 -> 1.0).toMap
    assertThrows[IllegalArgumentException](Metrics.resultLine(true, 1, 0, trace = false, values - "run_s"))
    assertThrows[IllegalArgumentException](Metrics.resultLine(true, 1, 0, trace = false, values + ("fail_frac" -> 0.0)))
  }
}
