// Fixture for tools/surface_audit.py: one header of config fields and free
// functions.
#pragma once

double Half(double x);

struct WidgetOptions {
  using Size = int;                     // an alias, not a field
  int widget_bench_sets = 1;            // set by bench/ after a "//" string
  double widget_call_init = Half(1.0);  // call initializer: still audited
  int widget_src_sets = 2;              // a src/ preset assigns it
  int widget_default_only = 3;          // only tests/ sets it
};

void WidgetPreset(WidgetOptions* options);

int WidgetDead(int x);  // declared and defined, called nowhere
void WidgetHook();      // never called, but src/ takes its address
