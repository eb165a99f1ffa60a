#include "widget.h"

double Half(double x) { return x / 2; }

void WidgetPreset(WidgetOptions* options) { options->widget_src_sets = 4; }

int WidgetDead(int x) { return x + 1; }

void WidgetHook() {}

void (*const kWidgetHook)() = &WidgetHook;
